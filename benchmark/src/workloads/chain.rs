//! A serving session without its threads: what the server does to a
//! request between the client's `send` and `recv`, on one thread.

use crate::trace::Tracer;
use fg_serve::frame::encode_frame;
use fg_serve::msg::{
    decode_events, decode_request, decode_response, encode_events, encode_request, encode_response,
    EventBatch,
};
use fg_serve::{FrameDecoder, FrameKind, Request, Response, ServerEngine};

/// The span names of one kind of request, in call order: encode the
/// request, decode it, `ServerEngine::handle`, encode the response,
/// decode it. Each kind has its own so that a quote's spans, a
/// submission's and the drain's stay apart.
pub type SpanNames = [&'static str; 5];

/// Client encode → frame → server decode → `ServerEngine::handle` →
/// server encode → frame → client decode, with a span around every
/// layer call.
pub struct SansIo {
    pub engine: ServerEngine,
    server_dec: FrameDecoder,
    client_dec: FrameDecoder,
    seq: u32,
}

impl SansIo {
    pub fn new(engine: ServerEngine) -> SansIo {
        SansIo { engine, server_dec: FrameDecoder::new(), client_dec: FrameDecoder::new(), seq: 0 }
    }

    /// One request through the chain; returns the decoded response and
    /// the size of its payload.
    pub fn call<T: Tracer>(
        &mut self,
        t: &mut T,
        req: Request,
        names: SpanNames,
    ) -> Result<(Response, usize), String> {
        let seq = self.seq;
        self.seq = self.seq.wrapping_add(1);
        let payload = t.span(names[0], || encode_request(&req));
        let wire = t.span("serve.frame.encode", || encode_frame(FrameKind::Request, seq, &payload));
        let frame = t
            .span("serve.frame.decode", || {
                self.server_dec.push(&wire);
                self.server_dec.next_frame()
            })
            .map_err(|e| e.to_string())?
            .ok_or("request frame incomplete")?;
        let ord = self.server_dec.frames() - 1;
        let req = t.span(names[1], || decode_request(&frame, ord)).map_err(|e| e.to_string())?;
        let (resp, events) = t.span(names[2], || self.engine.handle(req));
        if !events.is_empty() {
            // The server streams a request's events ahead of its
            // response, in a frame of their own.
            let batch = EventBatch { events };
            let payload = t.span("serve.msg.encode_events", || encode_events(&batch));
            let wire =
                t.span("serve.frame.encode", || encode_frame(FrameKind::Event, seq, &payload));
            let frame = t
                .span("serve.frame.decode", || {
                    self.client_dec.push(&wire);
                    self.client_dec.next_frame()
                })
                .map_err(|e| e.to_string())?
                .ok_or("event frame incomplete")?;
            let ord = self.client_dec.frames() - 1;
            t.span("serve.msg.decode_events", || decode_events(&frame, ord))
                .map_err(|e| e.to_string())?;
        }
        let payload = t.span(names[3], || encode_response(&resp));
        let wire =
            t.span("serve.frame.encode", || encode_frame(FrameKind::Response, seq, &payload));
        let frame = t
            .span("serve.frame.decode", || {
                self.client_dec.push(&wire);
                self.client_dec.next_frame()
            })
            .map_err(|e| e.to_string())?
            .ok_or("response frame incomplete")?;
        let ord = self.client_dec.frames() - 1;
        let resp = t.span(names[4], || decode_response(&frame, ord)).map_err(|e| e.to_string())?;
        Ok((resp, payload.len()))
    }
}
