package obs

import "context"

type spanKey struct{}

// ContextWithTrace makes t's root the current span of ctx, so StartSpan
// calls downstream nest under it.
func ContextWithTrace(ctx context.Context, t *Trace) context.Context {
	return context.WithValue(ctx, spanKey{}, t.Root())
}

// ContextWithSpan makes sp the current span of ctx.
func ContextWithSpan(ctx context.Context, sp *Span) context.Context {
	return context.WithValue(ctx, spanKey{}, sp)
}

// SpanFrom returns ctx's current span, or nil.
func SpanFrom(ctx context.Context) *Span {
	sp, _ := ctx.Value(spanKey{}).(*Span)
	return sp
}

// StartSpan starts a child of ctx's current span and returns it with a
// derived context in which it is current. With no trace/span in ctx it
// returns (nil, ctx) — every Span method tolerates the nil.
func StartSpan(ctx context.Context, name string) (*Span, context.Context) {
	parent := SpanFrom(ctx)
	if parent == nil {
		return nil, ctx
	}
	sp := parent.Child(name)
	return sp, ContextWithSpan(ctx, sp)
}
