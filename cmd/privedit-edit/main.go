// Command privedit-edit is an interactive line-oriented editor client that
// talks to a privedit-server through the mediating extension, so every
// byte that leaves the process is encrypted. It plays the role of the
// browser + extension of the paper's Figure 1.
//
// Start a server first:
//
//	privedit-server &
//	privedit-edit -doc notes -password hunter2
//
// Commands:
//
//	:show            print the document
//	:ins <pos> <txt> insert text at position
//	:del <pos> <n>   delete n characters at position
//	:save            save (first save full, then incremental deltas) and
//	                 report whether it is durable or only saved locally
//	:cipher          show what the server currently stores
//	:stats           extension statistics
//	:metrics         live telemetry snapshot (Prometheus text)
//	:quit            push queued saves to the server (bounded wait) and exit
//
// Any other line is appended to the document. Run with -metrics-dump to
// write the session's full metric catalog on exit, and with -trace-out to
// stream every completed operation trace (load/save/sync span trees,
// including server-side spans when the server traces too) as JSON lines.
package main

import (
	"bufio"
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"strconv"
	"strings"
	"time"

	"privedit/internal/core"
	"privedit/internal/covert"
	"privedit/internal/gdocs"
	"privedit/internal/mediator"
	"privedit/internal/obs"
	"privedit/internal/trace"
)

func main() {
	base := flag.String("server", "http://127.0.0.1:8747", "privedit-server URL")
	docID := flag.String("doc", "notes", "document id")
	password := flag.String("password", "", "per-document password (required)")
	schemeName := flag.String("scheme", "rpc", "encryption scheme: recb (confidentiality) or rpc (confidentiality+integrity)")
	blockChars := flag.Int("b", core.DefaultBlockChars, "characters per cipher block (1..8)")
	mitigate := flag.Bool("mitigate", false, "enable covert-channel mitigations")
	useStego := flag.Bool("stego", false, "store the document as word prose instead of Base32")
	metricsDump := flag.String("metrics-dump", "", "on exit, write Prometheus text metrics to this path (\"-\" for stdout)")
	traceOut := flag.String("trace-out", "", "append completed operation traces to this JSONL file (\"-\" for stderr)")
	slowSpan := flag.Duration("slow-span", 0, "enable tracing and log spans slower than this threshold (0 = off)")
	flag.Parse()

	if *metricsDump != "" {
		obs.Enable()
		defer dumpMetrics(*metricsDump)
	}
	if *traceOut != "" {
		trace.Enable()
		jw, err := openTraceOut(*traceOut)
		if err != nil {
			fmt.Fprintf(os.Stderr, "privedit-edit: trace-out: %v\n", err)
			os.Exit(1)
		}
		defer jw.Close()
		defer trace.Default.AddSink(jw.Write)()
	}
	if *slowSpan > 0 {
		trace.Enable()
		trace.Default.SetSlowSpan(*slowSpan, func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, format+"\n", args...)
		})
	}

	if *password == "" {
		fmt.Fprintln(os.Stderr, "privedit-edit: -password is required (the paper's per-document password dialog)")
		os.Exit(2)
	}
	scheme := core.ConfidentialityIntegrity
	if strings.EqualFold(*schemeName, "recb") {
		scheme = core.ConfidentialityOnly
	}

	var mit *covert.Mitigator
	if *mitigate {
		mit = covert.New(covert.DefaultConfig(), nil)
	}
	opts := core.Options{Scheme: scheme, BlockChars: *blockChars}
	var extOpts []mediator.Option
	if *useStego {
		extOpts = append(extOpts, mediator.WithStego())
	}
	ext := mediator.New(http.DefaultTransport, mediator.StaticPassword(*password, opts), append([]mediator.Option{mediator.WithMitigator(mit)}, extOpts...)...)
	client := gdocs.NewClient(ext.Client(), *base, *docID)

	// Open or create the document.
	if err := client.Load(); err != nil {
		if err := client.Create(); err != nil {
			fmt.Fprintf(os.Stderr, "privedit-edit: cannot load or create %q: %v\n", *docID, err)
			os.Exit(1)
		}
		fmt.Printf("created document %q (%s, b=%d)\n", *docID, scheme, *blockChars)
	} else {
		fmt.Printf("loaded document %q (%d chars)\n", *docID, len(client.Text()))
	}

	scanner := bufio.NewScanner(os.Stdin)
	fmt.Print("> ")
	for scanner.Scan() {
		line := scanner.Text()
		if err := execute(client, ext, line); err != nil {
			if err == errQuit {
				break
			}
			fmt.Println("error:", err)
		}
		fmt.Print("> ")
	}
	closeSession(ext.Session(client.DocID()))
}

var errQuit = fmt.Errorf("quit")

// quitFlush bounds how long :quit (or end of input) waits for queued
// saves to reach the server.
const quitFlush = 10 * time.Second

// closeSession pushes the session's queued saves to the server, waiting
// at most quitFlush, then closes it and reports any saves that never
// reached the server.
func closeSession(sess *mediator.Session) {
	ctx, cancel := context.WithTimeout(context.Background(), quitFlush)
	defer cancel()
	if err := sess.Flush(ctx); errors.Is(err, context.DeadlineExceeded) {
		fmt.Fprintf(os.Stderr, "privedit-edit: server did not take every save within %v\n", quitFlush)
	} else if err != nil {
		fmt.Fprintf(os.Stderr, "privedit-edit: %v\n", err)
	}
	if err := sess.Close(); err != nil {
		fmt.Fprintf(os.Stderr, "privedit-edit: %v\n", err)
	}
}

// saveWait is how long :save waits for the server before reporting the
// save as local only.
const saveWait = time.Second

// openTraceOut resolves the -trace-out destination: a file path, or "-"
// for stderr (stdout is the editor's interactive surface). The stderr
// writer is shielded from Close.
func openTraceOut(path string) (*trace.JSONLWriter, error) {
	if path == "-" {
		return trace.NewJSONLWriter(struct{ io.Writer }{os.Stderr}), nil
	}
	return trace.OpenJSONL(path)
}

// dumpMetrics writes the session's metric catalog in Prometheus text
// exposition to path ("-" for stdout).
func dumpMetrics(path string) {
	out := os.Stdout
	if path != "-" {
		f, err := os.Create(path)
		if err != nil {
			fmt.Fprintf(os.Stderr, "privedit-edit: metrics-dump: %v\n", err)
			return
		}
		defer f.Close()
		out = f
	}
	if err := obs.Default.WritePrometheus(out); err != nil {
		fmt.Fprintf(os.Stderr, "privedit-edit: metrics-dump: %v\n", err)
	}
}

func execute(client *gdocs.Client, ext *mediator.Extension, line string) error {
	fields := strings.Fields(line)
	if len(fields) == 0 {
		return nil
	}
	switch fields[0] {
	case ":quit", ":q":
		return errQuit
	case ":show":
		fmt.Printf("%q (%d chars)\n", client.Text(), len(client.Text()))
	case ":ins":
		if len(fields) < 3 {
			return fmt.Errorf("usage: :ins <pos> <text>")
		}
		pos, err := strconv.Atoi(fields[1])
		if err != nil {
			return err
		}
		text := strings.Join(fields[2:], " ")
		return client.Insert(pos, text)
	case ":del":
		if len(fields) != 3 {
			return fmt.Errorf("usage: :del <pos> <n>")
		}
		pos, err := strconv.Atoi(fields[1])
		if err != nil {
			return err
		}
		n, err := strconv.Atoi(fields[2])
		if err != nil {
			return err
		}
		return client.Delete(pos, n)
	case ":save":
		pending := client.PendingDelta()
		if err := client.Save(); err != nil {
			return err
		}
		ctx, cancel := context.WithTimeout(context.Background(), saveWait)
		defer cancel()
		if err := ext.Session(client.DocID()).Flush(ctx); errors.Is(err, context.DeadlineExceeded) {
			fmt.Printf("saved locally only (delta %q) — the server has not acknowledged it yet; it is pushed on recovery and on :quit\n", pending.String())
		} else if err != nil {
			return fmt.Errorf("not saved: %w", err)
		} else {
			fmt.Printf("saved durably (delta %q)\n", pending.String())
		}
	case ":cipher":
		ed := ext.Session(client.DocID()).Editor()
		if ed == nil {
			return fmt.Errorf("no encryption state yet")
		}
		transport := ed.Transport()
		fmt.Printf("server stores %d chars of ciphertext:\n%.120s...\n", len(transport), transport)
	case ":stats":
		fmt.Printf("%+v\n", ext.Stats())
		if ext.Session(client.DocID()).Degraded() {
			fmt.Println("document is behind the server (round trips failing or saves queued)")
		}
	case ":metrics":
		if !obs.Default.Enabled() {
			obs.Enable() // first use turns collection on mid-session
			fmt.Println("metrics collection enabled (counts start now)")
			return nil
		}
		if err := obs.Default.WritePrometheus(os.Stdout); err != nil {
			return err
		}
	default:
		return client.Insert(len(client.Text()), line+"\n")
	}
	return nil
}
