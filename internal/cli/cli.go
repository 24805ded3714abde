// Package cli is the flag → configuration mapping the commands under cmd/
// share. Every command is a run(ctx, args, stdout) error driven by Main on its
// own FlagSet, which declares the two logging flags all seven take;
// TraceWriter opens -trace-out, and Run (run.go) holds the flags cmd/serve
// and cmd/simulate have in common with one method per object derived from
// them, so the simulator and the prototype are configured by the same code.
// Nothing under internal/ imports this package.
package cli

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"math"
	"os"
	"os/signal"
	"slices"
	"strings"
	"syscall"

	"ramsis/internal/telemetry"
)

// Main is every command's main(): it runs the command under a context that
// SIGINT or SIGTERM cancels — so a live mode or a replay returns through its
// deferred Stop and Close calls — and turns a returned error into exit
// status 1. The first signal only cancels; it also restores the default
// disposition, so a second one terminates a command that never reads its
// context (a long simulation, an experiment grid).
func Main(run func(ctx context.Context, args []string, stdout io.Writer) error) {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	context.AfterFunc(ctx, stop)
	err := run(ctx, os.Args[1:], os.Stdout)
	stop()
	if err == nil || errors.Is(err, flag.ErrHelp) {
		return
	}
	if !errors.As(err, new(usageError)) {
		slog.Error(err.Error())
	}
	os.Exit(1)
}

// usageError is a parse error the flag package has already printed, with the
// usage text; Main exits on it without reporting it a second time.
type usageError struct{ error }

func (e usageError) Unwrap() error { return e.error }

// FlagSet is a command's flag set: ContinueOnError, so a bad flag is run's
// returned error rather than an exit, with the -log-level / -log-format pair
// every command takes already declared.
type FlagSet struct {
	*flag.FlagSet
	logLevel, logFormat string
}

// NewFlagSet returns the flag set for the named command.
func NewFlagSet(name string) *FlagSet {
	fs := &FlagSet{FlagSet: flag.NewFlagSet(name, flag.ContinueOnError)}
	fs.StringVar(&fs.logLevel, "log-level", "info", "log level: debug, info, warn, error")
	fs.StringVar(&fs.logFormat, "log-format", "text", "log format: text or json")
	return fs
}

// Parse parses args, then installs the process logger under the command's
// name. A float flag set to NaN or ±Inf is a usage error naming the flag.
func (fs *FlagSet) Parse(args []string) (*slog.Logger, error) {
	err := fs.FlagSet.Parse(args)
	fs.Visit(func(f *flag.Flag) {
		if g, ok := f.Value.(flag.Getter); ok && err == nil {
			if x, ok := g.Get().(float64); ok && (math.IsNaN(x) || math.IsInf(x, 0)) {
				err = fmt.Errorf("invalid value %q for flag -%s: not a finite number", f.Value, f.Name)
				fmt.Fprintln(fs.Output(), err) // as the flag package reports a bad value
				fs.Usage()
			}
		}
	})
	if err != nil {
		return nil, usageError{err}
	}
	return telemetry.SetupLogging(fs.logLevel, fs.logFormat, fs.Name())
}

// Unread returns an error naming every flag in names that the command line
// set, for a mode that does not read them: a flag the mode would ignore is an
// error, not a silent no-op. It returns nil when none of them was set.
func (fs *FlagSet) Unread(mode string, names ...string) error {
	var set []string
	fs.Visit(func(f *flag.Flag) {
		if slices.Contains(names, f.Name) {
			set = append(set, "-"+f.Name)
		}
	})
	if set == nil {
		return nil
	}
	return fmt.Errorf("%s does not read %s", mode, strings.Join(set, ", "))
}

// TraceWriter opens a -trace-out file for JSONL trace fragments, appending
// unless truncate is set. An empty path is no tracing: a nil writer (which
// every trace sink accepts) and a no-op close.
func TraceWriter(path string, truncate bool) (*telemetry.TraceWriter, func() error, error) {
	if path == "" {
		return nil, func() error { return nil }, nil
	}
	mode := os.O_APPEND
	if truncate {
		mode = os.O_TRUNC
	}
	fh, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|mode, 0o644)
	if err != nil {
		return nil, nil, fmt.Errorf("-trace-out: %w", err)
	}
	return telemetry.NewTraceWriter(fh), fh.Close, nil
}
