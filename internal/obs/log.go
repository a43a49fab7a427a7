package obs

import (
	"context"
	"io"
	"log/slog"
)

// Logger is the execution stack's leveled, structured run logger: every
// admission, dispatch, retry, fault recovery, speculation, and calibration
// update emits one machine-parseable record through it. It follows the rest
// of obs's two invariants:
//
//   - Free when disabled. A nil *Logger is the disabled logger: scoping
//     methods return nil, event constructors return a nil *Event whose
//     field setters and Emit no-op — zero allocations end to end, so
//     instrumentation sites need no conditionals. Events below the
//     handler's level are equally free: the constructor checks Enabled
//     before allocating anything.
//
//   - Race safety. A Logger is an immutable view over a slog.Handler
//     (scoping derives new Loggers); slog handlers are safe for concurrent
//     use, so one deployment logger is shared by every goroutine of every
//     concurrent execution.
//
// Schema contract (DESIGN.md §13): the record message is the event name
// (snake_case, subsystem-prefixed: job_dispatch, while_iteration,
// fault_recovery, …); run/job/attempt scope rides as the `run`, `job`, and
// `attempt` attributes bound via WithRun/WithJob/WithAttempt; payload
// fields are flat typed key-values.
type Logger struct {
	s *slog.Logger
}

// emitCtx is the root context handed to slog handlers: log emission has no
// caller context to forward (events outlive any one job's ctx) and
// handlers only consult it for tracing integrations.
var emitCtx = context.Background()

// NewLogger wraps a slog handler. A nil handler yields the disabled (nil)
// logger.
func NewLogger(h slog.Handler) *Logger {
	if h == nil {
		return nil
	}
	return &Logger{s: slog.New(h)}
}

// NewJSONLogger builds a logger emitting one JSON object per event to w at
// the given minimum level — the machine-parseable default for run logs.
func NewJSONLogger(w io.Writer, level slog.Level) *Logger {
	return NewLogger(slog.NewJSONHandler(w, &slog.HandlerOptions{Level: level}))
}

// NewTextLogger builds a logger emitting logfmt-style key=value lines — the
// human-tail default for -run-log on a terminal.
func NewTextLogger(w io.Writer, level slog.Level) *Logger {
	return NewLogger(slog.NewTextHandler(w, &slog.HandlerOptions{Level: level}))
}

// WithRun scopes the logger to one execution: every event it emits carries
// run=id. Nil-safe.
func (l *Logger) WithRun(id string) *Logger {
	if l == nil {
		return nil
	}
	return &Logger{s: l.s.With(slog.String("run", id))}
}

// WithJob scopes the logger to one job of a run.
func (l *Logger) WithJob(job string) *Logger {
	if l == nil {
		return nil
	}
	return &Logger{s: l.s.With(slog.String("job", job))}
}

// WithAttempt scopes the logger to one attempt of a job.
func (l *Logger) WithAttempt(attempt int) *Logger {
	if l == nil {
		return nil
	}
	return &Logger{s: l.s.With(slog.Int("attempt", attempt))}
}

// Event is one in-flight log record: a level, an event name, and typed
// key-value fields appended fluently before Emit. A nil *Event (disabled
// logger, or level below the handler's threshold) no-ops every method.
type Event struct {
	l     *slog.Logger
	level slog.Level
	msg   string
	attrs []slog.Attr
}

// event starts a record if the level is enabled; the Enabled check runs
// before any allocation so suppressed events are free.
func (l *Logger) event(level slog.Level, name string) *Event {
	if l == nil || !l.s.Enabled(emitCtx, level) {
		return nil
	}
	return &Event{l: l.s, level: level, msg: name}
}

// Debug starts a debug-level event (per-dispatch noise: admission, skips,
// WHILE iterations).
func (l *Logger) Debug(name string) *Event { return l.event(slog.LevelDebug, name) }

// Info starts an info-level event (lifecycle: completions, speculation,
// re-plans).
func (l *Logger) Info(name string) *Event { return l.event(slog.LevelInfo, name) }

// Warn starts a warn-level event (recovered trouble: retries, injected
// faults, stragglers).
func (l *Logger) Warn(name string) *Event { return l.event(slog.LevelWarn, name) }

// Error starts an error-level event (propagated failures).
func (l *Logger) Error(name string) *Event { return l.event(slog.LevelError, name) }

// Str attaches a string field.
func (e *Event) Str(key, val string) *Event {
	if e == nil {
		return nil
	}
	e.attrs = append(e.attrs, slog.String(key, val))
	return e
}

// Int attaches an integer field.
func (e *Event) Int(key string, val int64) *Event {
	if e == nil {
		return nil
	}
	e.attrs = append(e.attrs, slog.Int64(key, val))
	return e
}

// Float attaches a float field.
func (e *Event) Float(key string, val float64) *Event {
	if e == nil {
		return nil
	}
	e.attrs = append(e.attrs, slog.Float64(key, val))
	return e
}

// Bool attaches a boolean field.
func (e *Event) Bool(key string, val bool) *Event {
	if e == nil {
		return nil
	}
	e.attrs = append(e.attrs, slog.Bool(key, val))
	return e
}

// Err attaches the error's message under "err" (skipped for nil errors).
func (e *Event) Err(err error) *Event {
	if e == nil || err == nil {
		return e
	}
	e.attrs = append(e.attrs, slog.String("err", err.Error()))
	return e
}

// Emit hands the record to the handler. No-op on nil.
func (e *Event) Emit() {
	if e == nil {
		return
	}
	e.l.LogAttrs(emitCtx, e.level, e.msg, e.attrs...)
}
