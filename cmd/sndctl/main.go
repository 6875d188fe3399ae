// Command sndctl is the command-line face of the snd/client package: it
// drives a sndserve /v1 API from scripts and shells without hand-rolled
// curl/jq plumbing, with API-key auth and typed error codes surfaced as
// exit status + stderr.
//
//	sndctl -server http://host:8080 [-key KEY] <command> [flags]
//
//	submit -exp NAME [-params JSON] [-job-timeout D] [-wait]
//	        submit a job; prints the job ID (or, with -wait, blocks and
//	        prints the terminal job JSON)
//	get ID          print one job as JSON (result included when done)
//	wait ID         block until terminal, print the job JSON; exit 1 if
//	                the job failed or was cancelled
//	list [-status S] [-exp E] [-limit N] [-all]
//	        print a page of the listing (or every page with -all)
//	cancel ID       request cancellation, print the job JSON
//
// Exit status: 0 on success, 1 on a failed/cancelled job or API error,
// 2 on usage errors.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"time"

	"snd/client"
)

func main() {
	root := flag.NewFlagSet("sndctl", flag.ExitOnError)
	server := root.String("server", "http://localhost:8080", "sndserve base URL")
	key := root.String("key", os.Getenv("SND_API_KEY"), "API key (defaults to $SND_API_KEY)")
	timeout := root.Duration("timeout", 10*time.Minute, "overall deadline for the command")
	root.Usage = func() {
		fmt.Fprintln(os.Stderr, "usage: sndctl [-server URL] [-key KEY] [-timeout D] submit|get|wait|list|cancel ...")
		root.PrintDefaults()
	}
	root.Parse(os.Args[1:])
	if root.NArg() < 1 {
		root.Usage()
		os.Exit(2)
	}

	ctx, cancel := context.WithTimeout(context.Background(), *timeout)
	defer cancel()
	c := client.New(*server, *key)
	// Long waits outlive the default per-request timeout budget only via
	// polling, so each request keeps the 30s default; ctx bounds the whole
	// command.

	cmd, args := root.Arg(0), root.Args()[1:]
	var err error
	switch cmd {
	case "submit":
		err = submit(ctx, c, args)
	case "get":
		err = getOne(ctx, c, args, false)
	case "wait":
		err = getOne(ctx, c, args, true)
	case "list":
		err = list(ctx, c, args)
	case "cancel":
		err = cancelJob(ctx, c, args)
	default:
		fmt.Fprintf(os.Stderr, "sndctl: unknown command %q\n", cmd)
		root.Usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "sndctl:", err)
		var apiErr *client.APIError
		if errors.As(err, &apiErr) && apiErr.RetryAfter > 0 {
			fmt.Fprintf(os.Stderr, "sndctl: rate limited; retry in %s\n", apiErr.RetryAfter)
		}
		os.Exit(1)
	}
}

func printJSON(v any) error {
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	return enc.Encode(v)
}

// finishJob prints the terminal job and reports non-done terminals as
// errors so scripts can `set -e` on sndctl wait.
func finishJob(job client.Job) error {
	if err := printJSON(job); err != nil {
		return err
	}
	if job.Status != client.StatusDone {
		return fmt.Errorf("job %s %s: %s", job.ID, job.Status, job.Error)
	}
	return nil
}

func submit(ctx context.Context, c *client.Client, args []string) error {
	fs := flag.NewFlagSet("submit", flag.ExitOnError)
	expName := fs.String("exp", "", "experiment name (required; see GET /v1/experiments)")
	params := fs.String("params", "", "params JSON object")
	jobTimeout := fs.String("job-timeout", "", "per-job deadline (Go duration, e.g. 90s)")
	wait := fs.Bool("wait", false, "block until the job finishes and print the full job")
	fs.Parse(args)
	if *expName == "" {
		return fmt.Errorf("submit: -exp is required")
	}
	req := client.SubmitRequest{Experiment: *expName, Timeout: *jobTimeout}
	if *params != "" {
		req.Params = json.RawMessage(*params)
	}
	job, err := c.SubmitJob(ctx, req)
	if err != nil {
		return err
	}
	if !*wait {
		fmt.Println(job.ID)
		return nil
	}
	job, err = c.Wait(ctx, job.ID, 0)
	if err != nil {
		return err
	}
	return finishJob(job)
}

func getOne(ctx context.Context, c *client.Client, args []string, wait bool) error {
	if len(args) != 1 {
		return fmt.Errorf("want exactly one job ID")
	}
	if wait {
		job, err := c.Wait(ctx, args[0], 0)
		if err != nil {
			return err
		}
		return finishJob(job)
	}
	job, err := c.GetJob(ctx, args[0])
	if err != nil {
		return err
	}
	return printJSON(job)
}

func list(ctx context.Context, c *client.Client, args []string) error {
	fs := flag.NewFlagSet("list", flag.ExitOnError)
	status := fs.String("status", "", "filter by status")
	expName := fs.String("exp", "", "filter by experiment")
	limit := fs.Int("limit", 0, "page size (0 = server default)")
	cursor := fs.String("cursor", "", "resume from a next_cursor token")
	all := fs.Bool("all", false, "follow next_cursor until the listing is exhausted")
	fs.Parse(args)
	opts := client.ListOptions{Status: *status, Experiment: *expName, Limit: *limit, Cursor: *cursor}
	for {
		page, err := c.ListJobs(ctx, opts)
		if err != nil {
			return err
		}
		if err := printJSON(page); err != nil {
			return err
		}
		if !*all || page.NextCursor == "" {
			return nil
		}
		opts.Cursor = page.NextCursor
	}
}

func cancelJob(ctx context.Context, c *client.Client, args []string) error {
	if len(args) != 1 {
		return fmt.Errorf("cancel: want exactly one job ID")
	}
	job, err := c.CancelJob(ctx, args[0])
	if err != nil {
		return err
	}
	return printJSON(job)
}
