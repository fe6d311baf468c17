package main

// The serve, work and submit subcommands: thin command-line wrappers over
// internal/campaignd (DESIGN.md, "Campaign service"). serve hosts a
// Coordinator's HTTP handler, work runs a campaignd Worker against it, and
// submit posts a JobSpec and, with -wait, polls the job until it finishes
// and prints the merged report through reportOutcomes — the same stdout
// bytes as the equivalent solo -inject run.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro"
	"repro/internal/campaignd"
)

// signalContext is cancelled by SIGINT or SIGTERM.
func signalContext() (context.Context, context.CancelFunc) {
	return signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
}

func runServe(args []string) error {
	fs := flag.NewFlagSet("serve", flag.ExitOnError)
	var (
		addr        = fs.String("addr", "127.0.0.1:7077", "listen address")
		dir         = fs.String("dir", "", "where per-shard journals live (default: working directory)")
		leaseTTL    = fs.Duration("lease-ttl", 10*time.Second, "a worker silent this long loses its shard")
		backoff     = fs.Duration("backoff", 500*time.Millisecond, "reassignment delay, doubling per attempt")
		maxBackoff  = fs.Duration("max-backoff", 30*time.Second, "cap on the reassignment delay")
		maxAttempts = fs.Int("max-attempts", 12, "grants per shard before the job fails")
		shards      = fs.Int("shards", 4, "default shard count for jobs that omit one")
	)
	fs.Parse(args)

	logger := log.New(os.Stderr, "", log.LstdFlags)
	co, err := campaignd.New(campaignd.Config{
		Dir:           *dir,
		LeaseTTL:      *leaseTTL,
		BaseBackoff:   *backoff,
		MaxBackoff:    *maxBackoff,
		MaxAttempts:   *maxAttempts,
		DefaultShards: *shards,
		Logf:          logger.Printf,
	})
	if err != nil {
		return err
	}
	srv := &http.Server{Addr: *addr, Handler: co.Handler()}
	ctx, stop := signalContext()
	defer stop()

	// Requests sweep expired leases lazily; the ticker covers idle
	// stretches in which no worker is asking.
	go func() {
		tick := time.NewTicker(*leaseTTL / 4)
		defer tick.Stop()
		for {
			select {
			case <-ctx.Done():
				return
			case <-tick.C:
				co.Tick()
			}
		}
	}()
	go func() {
		<-ctx.Done()
		shutdown, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		srv.Shutdown(shutdown)
	}()
	logger.Printf("campaignd: serving on %s", *addr)
	if err := srv.ListenAndServe(); !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	return nil
}

func runWork(args []string) error {
	fs := flag.NewFlagSet("work", flag.ExitOnError)
	var (
		coord   = fs.String("coordinator", "http://127.0.0.1:7077", "coordinator base URL")
		id      = fs.String("id", "", "worker name in leases and logs (default host-pid)")
		poll    = fs.Duration("poll", 500*time.Millisecond, "idle delay between lease attempts")
		workers = fs.Int("workers", 0, "goroutines per shard campaign (0 = one per CPU)")
	)
	fs.Parse(args)

	logger := log.New(os.Stderr, "", log.LstdFlags)
	w := campaignd.NewWorker(campaignd.WorkerConfig{
		Coordinator:     *coord,
		ID:              *id,
		Poll:            *poll,
		CampaignWorkers: *workers,
		Logf:            logger.Printf,
	})
	ctx, stop := signalContext()
	defer stop()
	return w.Run(ctx)
}

func runSubmit(args []string) error {
	fs := flag.NewFlagSet("submit", flag.ExitOnError)
	var (
		coord    = fs.String("coordinator", "http://127.0.0.1:7077", "coordinator base URL")
		bench    = fs.String("bench", "", "built-in benchmark name")
		mode     = fs.String("mode", "original", "protection scheme (softft -mode syntax)")
		fmodel   = fs.String("fault-model", "", "registered fault model (default reg-flip)")
		inject   = fs.Int("inject", 0, "campaign size in trials")
		seed     = fs.Int64("seed", 2014, "campaign seed")
		shards   = fs.Int("shards", 0, "shard count (0 = coordinator default)")
		targetCI = fs.Float64("target-ci", 0, "streaming cross-shard early stop threshold (0 = off)")
		wait     = fs.Bool("wait", false, "poll until done and print the merged report")
	)
	fs.Parse(args)

	// Validate locally so a typo fails here rather than in a worker.
	bm, err := softft.GetBenchmark(*bench)
	if err != nil {
		return err
	}
	m, err := softft.ParseMode(*mode)
	if err != nil {
		return err
	}
	if *inject <= 0 {
		return fmt.Errorf("submit needs -inject N with N > 0")
	}
	spec := campaignd.JobSpec{
		Bench:      *bench,
		Mode:       *mode,
		FaultModel: *fmodel,
		Trials:     *inject,
		Seed:       *seed,
		Shards:     *shards,
		TargetCI:   *targetCI,
	}
	var sub struct {
		JobID string `json:"job_id"`
	}
	if err := postJSON(*coord+"/api/jobs", spec, &sub); err != nil {
		return err
	}
	if !*wait {
		fmt.Println(sub.JobID)
		return nil
	}

	ctx, stop := signalContext()
	defer stop()
	for {
		var st campaignd.JobStatus
		if err := getJSON(ctx, *coord+"/api/jobs/"+sub.JobID, &st); err != nil {
			return err
		}
		switch st.State {
		case "done":
			reportOutcomes(bm.Name(), m, st.Outcomes, *targetCI)
			return nil
		case "failed":
			return fmt.Errorf("job %s failed: %s", sub.JobID, st.Failure)
		}
		select {
		case <-ctx.Done():
			return fmt.Errorf("interrupted waiting for job %s", sub.JobID)
		case <-time.After(200 * time.Millisecond):
		}
	}
}

func postJSON(url string, in, out any) error {
	body, err := json.Marshal(in)
	if err != nil {
		return err
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return err
	}
	return decodeResponse(resp, out)
}

func getJSON(ctx context.Context, url string, out any) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return err
	}
	return decodeResponse(resp, out)
}

func decodeResponse(resp *http.Response, out any) error {
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(resp.Body)
		return fmt.Errorf("%s: %s: %s", resp.Request.URL, resp.Status, bytes.TrimSpace(msg))
	}
	return json.NewDecoder(resp.Body).Decode(out)
}
