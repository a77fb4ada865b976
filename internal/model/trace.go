package model

// TraceCtx is the compact causal trace context propagated on wire frames
// (Dapper-style): a 64-bit trace id naming one end-to-end request, the
// 32-bit id of the span doing the sending, and the id of that span's
// parent. The zero value means "untraced" and costs nothing on the wire;
// the wire codec encodes a non-zero context behind a flag bit so untraced
// frames stay byte-identical to the pre-tracing format.
type TraceCtx struct {
	Trace  uint64
	Span   uint32
	Parent uint32
}

// IsZero reports whether the context is absent (untraced).
func (c TraceCtx) IsZero() bool { return c == TraceCtx{} }

// Child derives the context a new span with id span should propagate:
// same trace, the new span as sender, the current span as its parent.
func (c TraceCtx) Child(span uint32) TraceCtx {
	return TraceCtx{Trace: c.Trace, Span: span, Parent: c.Span}
}
