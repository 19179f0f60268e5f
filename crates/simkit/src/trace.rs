//! Pod-wide flight recorder: causal spans and instant events stamped in
//! simulated time, exportable as Chrome/Perfetto trace-event JSON.
//!
//! The recorder answers the question the aggregate counters cannot:
//! *where did a given forwarded I/O spend its nanoseconds?* Every stage
//! of the datapath — payload staging, protocol encode, channel
//! send/poll (including backpressure stalls), agent dispatch, device
//! doorbell, device execution, DMA, completion delivery — records a
//! span or instant here, correlated by operation id, and simultaneously
//! feeds a per-stage [`Histogram`] so reports can show p50/p99/max
//! latency attribution per stage and per device kind.
//!
//! Design constraints (see DESIGN.md §8):
//!
//! - **Observation only.** The recorder never advances any clock; it
//!   stores timestamps the simulation already computed. Runs with
//!   tracing on and off produce identical simulated behavior.
//! - **Bounded.** Events live in a chunked [`Arena`] capped at
//!   [`TraceConfig::capacity`]; once full, new events increment a drop
//!   counter instead of growing the buffer. Drops are themselves
//!   observable via [`TraceRecorder::dropped`]. Chunks are allocated
//!   lazily as the recording grows, so short runs never pay for the
//!   full capacity, and free-form annotations share one [`StrArena`]
//!   instead of costing a heap allocation per event.
//! - **Zero-cost when off.** The recorder is owned as an
//!   `Option<Box<_>>` by the fabric; every instrumentation site is a
//!   single `is-some` branch when disabled.
//!
//! The export format is the Chrome trace-event JSON understood by
//! <https://ui.perfetto.dev>: one track ("thread") per host CPU, per
//! DMA attach point, and per shared-memory channel.

use std::collections::BTreeMap;

use crate::arena::{Arena, StrArena, StrRef};
use crate::stats::{Histogram, Summary};
use crate::time::Nanos;

/// Device-kind tag attached to trace context: no device.
pub const KIND_NONE: u8 = 0;
/// Device-kind tag: NIC.
pub const KIND_NIC: u8 = 1;
/// Device-kind tag: SSD.
pub const KIND_SSD: u8 = 2;
/// Device-kind tag: accelerator.
pub const KIND_ACCEL: u8 = 3;

/// Human-readable name of a device-kind tag.
pub fn kind_name(kind: u8) -> &'static str {
    match kind {
        KIND_NIC => "nic",
        KIND_SSD => "ssd",
        KIND_ACCEL => "accel",
        _ => "-",
    }
}

/// The track an event is drawn on: one per host CPU, one per DMA
/// attach point, one per shared-memory channel (keyed by the ring's
/// base address, which is stable for the ring's lifetime).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Track {
    /// A host's CPU timeline.
    HostCpu(u16),
    /// A host's DMA attach point (all devices behind it).
    Dma(u16),
    /// One direction of a shared-memory channel, keyed by ring base.
    Channel(u64),
}

impl Track {
    fn label(&self) -> String {
        match self {
            Track::HostCpu(h) => format!("host{h} cpu"),
            Track::Dma(h) => format!("host{h} dma"),
            Track::Channel(base) => format!("chan@{base:#x}"),
        }
    }
}

/// One recorded event: a span (`dur` set) or an instant (`dur` empty).
#[derive(Clone, Debug)]
pub struct TraceEvent {
    /// The track the event belongs to.
    pub track: Track,
    /// Stage name, e.g. `"chan/send"`.
    pub name: &'static str,
    /// Correlating operation id (0 = not tied to a client operation).
    pub op: u64,
    /// Device-kind tag in force when the event was recorded.
    pub kind: u8,
    /// Start time (spans) or occurrence time (instants).
    pub start: Nanos,
    /// Span duration; `None` marks an instant event.
    pub dur: Option<Nanos>,
    /// Free-form annotation (message kind, violation detail, …) as a
    /// reference into the recorder's string arena; resolve with
    /// [`TraceRecorder::note_of`].
    pub note: Option<StrRef>,
}

/// Recorder construction parameters. `Default` keeps 65,536 events
/// and records no per-access fabric spans.
#[derive(Clone, Debug)]
pub struct TraceConfig {
    /// Maximum number of retained events; the buffer never grows past
    /// this, and overflow increments [`TraceRecorder::dropped`].
    pub capacity: usize,
    /// Also record a span for every individual fabric access (loads,
    /// stores, flushes, DMA) — verbose, so off by default.
    pub fabric_ops: bool,
}

impl Default for TraceConfig {
    fn default() -> Self {
        TraceConfig {
            capacity: 1 << 16,
            fabric_ops: false,
        }
    }
}

/// The flight recorder.
///
/// Owned by the fabric (so every layer that already holds `&mut
/// Fabric` can record without signature churn) and driven through a
/// small API: a context stack carrying `(op id, device kind)` set by
/// the datapath entry points, and `span`/`instant` recording calls at
/// each stage that inherit that context.
pub struct TraceRecorder {
    config: TraceConfig,
    events: Arena<TraceEvent>,
    notes: StrArena,
    dropped: u64,
    /// `(op, kind)` context stack; the top attributes recorded events.
    ctx: Vec<(u64, u8)>,
    /// Per-(stage, device kind) latency attribution.
    stages: BTreeMap<(&'static str, u8), Histogram>,
    /// Audit violations already re-emitted as instants (watermark into
    /// the audit report's recorded-violation list).
    audit_seen: usize,
}

impl TraceRecorder {
    /// Creates a recorder; event chunks are arena-allocated on demand,
    /// so recording never moves already-stored events and an idle
    /// recorder costs nothing.
    pub fn new(config: TraceConfig) -> TraceRecorder {
        TraceRecorder {
            config,
            events: Arena::new(),
            notes: StrArena::new(),
            dropped: 0,
            ctx: Vec::new(),
            stages: BTreeMap::new(),
            audit_seen: 0,
        }
    }

    /// The configuration in force.
    pub fn config(&self) -> &TraceConfig {
        &self.config
    }

    /// Pushes an operation context: subsequent events record under
    /// `(op, kind)` until the matching [`TraceRecorder::pop_ctx`].
    pub fn push_ctx(&mut self, op: u64, kind: u8) {
        self.ctx.push((op, kind));
    }

    /// Pops the top operation context (no-op when empty).
    pub fn pop_ctx(&mut self) {
        self.ctx.pop();
    }

    /// The current `(op, kind)` context, or `(0, KIND_NONE)`.
    pub fn ctx(&self) -> (u64, u8) {
        self.ctx.last().copied().unwrap_or((0, KIND_NONE))
    }

    fn push_event(&mut self, ev: TraceEvent) {
        if self.events.len() < self.config.capacity {
            self.events.push(ev);
        } else {
            self.dropped += 1;
        }
    }

    /// Records a span under the current context and feeds the stage's
    /// histogram. `end < start` is clamped to a zero-length span.
    pub fn span(&mut self, track: Track, name: &'static str, start: Nanos, end: Nanos) {
        let (op, kind) = self.ctx();
        self.span_for(track, name, op, kind, start, end);
    }

    /// Records a span with an explicit `(op, kind)` attribution.
    pub fn span_for(
        &mut self,
        track: Track,
        name: &'static str,
        op: u64,
        kind: u8,
        start: Nanos,
        end: Nanos,
    ) {
        let dur = end.saturating_sub(start);
        self.stages
            .entry((name, kind))
            .or_default()
            .record(dur.as_nanos());
        self.push_event(TraceEvent {
            track,
            name,
            op,
            kind,
            start,
            dur: Some(dur),
            note: None,
        });
    }

    /// Records an instant event under the current context.
    pub fn instant(&mut self, track: Track, name: &'static str, at: Nanos) {
        let (op, kind) = self.ctx();
        self.instant_for(track, name, op, kind, at, None);
    }

    /// Records an annotated instant under the current context. The
    /// note is copied into the recorder's string arena (no per-event
    /// heap allocation).
    pub fn instant_note(&mut self, track: Track, name: &'static str, at: Nanos, note: &str) {
        let (op, kind) = self.ctx();
        self.instant_for(track, name, op, kind, at, Some(note));
    }

    /// Records an instant with explicit attribution.
    pub fn instant_for(
        &mut self,
        track: Track,
        name: &'static str,
        op: u64,
        kind: u8,
        at: Nanos,
        note: Option<&str>,
    ) {
        // Intern only if the event will be retained, so a full ring
        // does not grow the note arena.
        let note = if self.events.len() < self.config.capacity {
            note.map(|n| self.notes.intern(n))
        } else {
            None
        };
        self.push_event(TraceEvent {
            track,
            name,
            op,
            kind,
            start: at,
            dur: None,
            note,
        });
    }

    /// Iterates recorded events, oldest first.
    pub fn events(&self) -> impl Iterator<Item = &TraceEvent> {
        self.events.iter()
    }

    /// Number of retained events.
    pub fn event_count(&self) -> usize {
        self.events.len()
    }

    /// Resolves an event's annotation against this recorder's string
    /// arena.
    pub fn note_of(&self, ev: &TraceEvent) -> Option<&str> {
        ev.note.map(|r| self.notes.resolve(r))
    }

    /// Events not retained because the ring was full.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// How many audit violations have already been re-emitted as
    /// instants (a watermark into the audit report's violation list,
    /// maintained by the fabric's audit hook).
    pub fn audit_watermark(&self) -> usize {
        self.audit_seen
    }

    /// Advances the audit-violation watermark.
    pub fn set_audit_watermark(&mut self, n: usize) {
        self.audit_seen = n;
    }

    /// Per-stage latency attribution: `(stage, device kind, summary)`,
    /// sorted by stage name then kind. Histograms are fed even when the
    /// event ring overflows, so attribution stays complete under drops.
    pub fn stage_summaries(&self) -> Vec<(&'static str, u8, Summary)> {
        self.stages
            .iter()
            .map(|(&(name, kind), h)| (name, kind, h.summary()))
            .collect()
    }

    /// Exports the recording as Chrome trace-event JSON, loadable in
    /// `ui.perfetto.dev` or `chrome://tracing`. Timestamps are emitted
    /// in microseconds (the format's unit) with nanosecond precision
    /// preserved as fractions. `extra` holds pre-rendered trace-event
    /// JSON objects to merge in (e.g. the metrics plane's `"ph":"C"`
    /// counter tracks from
    /// [`crate::metrics::MetricsRecorder::counter_track_events`]), so
    /// counters render alongside spans in one Perfetto view.
    pub fn export_chrome_json_with(&self, extra: &[String]) -> String {
        // Deterministic track→tid assignment in first-use order.
        let mut tids: BTreeMap<Track, u64> = BTreeMap::new();
        for ev in &self.events {
            let next = tids.len() as u64;
            tids.entry(ev.track).or_insert(next);
        }
        let mut out = String::with_capacity(self.events.len() * 96 + 256);
        out.push_str("{\n\"displayTimeUnit\": \"ns\",\n\"traceEvents\": [");
        let mut first = true;
        let mut emit = |s: String, first: &mut bool| {
            if !*first {
                out.push(',');
            }
            *first = false;
            out.push('\n');
            out.push_str(&s);
        };
        for (track, tid) in &tids {
            emit(
                format!(
                    "{{\"ph\":\"M\",\"pid\":0,\"tid\":{tid},\"name\":\"thread_name\",\
                     \"args\":{{\"name\":{}}}}}",
                    json_string(&track.label())
                ),
                &mut first,
            );
        }
        for ev in &self.events {
            let tid = tids[&ev.track];
            let ts = ev.start.as_nanos() as f64 / 1000.0;
            let mut args = format!("\"op\":{},\"kind\":\"{}\"", ev.op, kind_name(ev.kind));
            if let Some(note) = self.note_of(ev) {
                args.push_str(&format!(",\"note\":{}", json_string(note)));
            }
            let body = match ev.dur {
                Some(d) => {
                    let dur = d.as_nanos() as f64 / 1000.0;
                    format!(
                        "{{\"ph\":\"X\",\"pid\":0,\"tid\":{tid},\"name\":{},\
                         \"ts\":{ts},\"dur\":{dur},\"args\":{{{args}}}}}",
                        json_string(ev.name)
                    )
                }
                None => format!(
                    "{{\"ph\":\"i\",\"pid\":0,\"tid\":{tid},\"name\":{},\
                     \"ts\":{ts},\"s\":\"t\",\"args\":{{{args}}}}}",
                    json_string(ev.name)
                ),
            };
            emit(body, &mut first);
        }
        for e in extra {
            emit(e.clone(), &mut first);
        }
        if self.dropped > 0 {
            emit(
                format!(
                    "{{\"ph\":\"i\",\"pid\":0,\"tid\":0,\"name\":\"trace/dropped\",\
                     \"ts\":0,\"s\":\"g\",\"args\":{{\"count\":{}}}}}",
                    self.dropped
                ),
                &mut first,
            );
        }
        out.push_str("\n]\n}\n");
        out
    }
}

/// Escapes `s` as a JSON string literal (the trace and metrics
/// exports share it).
pub(crate) fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(capacity: usize) -> TraceConfig {
        TraceConfig {
            capacity,
            fabric_ops: false,
        }
    }

    #[test]
    fn spans_inherit_context() {
        let mut tr = TraceRecorder::new(cfg(16));
        tr.push_ctx(42, KIND_SSD);
        tr.span(Track::HostCpu(1), "chan/send", Nanos(100), Nanos(250));
        tr.pop_ctx();
        tr.span(Track::HostCpu(1), "chan/send", Nanos(300), Nanos(310));
        let evs: Vec<&TraceEvent> = tr.events().collect();
        assert_eq!(evs.len(), 2);
        assert_eq!(evs[0].op, 42);
        assert_eq!(evs[0].kind, KIND_SSD);
        assert_eq!(evs[0].dur, Some(Nanos(150)));
        assert_eq!(evs[1].op, 0);
        assert_eq!(evs[1].kind, KIND_NONE);
    }

    #[test]
    fn capacity_bounds_events_and_counts_drops() {
        let mut tr = TraceRecorder::new(cfg(1));
        for i in 0..5u64 {
            tr.span_for(
                Track::Dma(0),
                "dma/read",
                i,
                KIND_NIC,
                Nanos(i * 10),
                Nanos(i * 10 + 5),
            );
        }
        assert_eq!(tr.event_count(), 1);
        assert_eq!(tr.dropped(), 4);
        // Attribution survives the drops.
        let sums = tr.stage_summaries();
        assert_eq!(sums.len(), 1);
        assert_eq!(sums[0].2.count, 5);
    }

    #[test]
    fn stage_summaries_key_by_stage_and_kind() {
        let mut tr = TraceRecorder::new(cfg(64));
        tr.span_for(Track::Dma(0), "dma/read", 1, KIND_NIC, Nanos(0), Nanos(10));
        tr.span_for(Track::Dma(0), "dma/read", 2, KIND_SSD, Nanos(0), Nanos(30));
        let sums = tr.stage_summaries();
        assert_eq!(sums.len(), 2);
        assert!(sums
            .iter()
            .any(|&(n, k, s)| n == "dma/read" && k == KIND_NIC && s.max == 10));
        assert!(sums
            .iter()
            .any(|&(n, k, s)| n == "dma/read" && k == KIND_SSD && s.max == 30));
    }

    #[test]
    fn export_is_valid_shape() {
        let mut tr = TraceRecorder::new(cfg(8));
        tr.push_ctx(7, KIND_NIC);
        tr.span(
            Track::HostCpu(0),
            "op/vnic_send",
            Nanos(1_500),
            Nanos(2_500),
        );
        tr.instant_note(
            Track::Channel(0xABC0),
            "chan/blocked",
            Nanos(2_000),
            "ring \"full\"",
        );
        tr.pop_ctx();
        let json = tr.export_chrome_json_with(&[]);
        assert!(json.contains("\"traceEvents\""));
        assert!(json.contains("\"thread_name\""));
        assert!(json.contains("\"op/vnic_send\""));
        assert!(json.contains("\"ph\":\"X\""));
        assert!(json.contains("\"ph\":\"i\""));
        assert!(json.contains("ring \\\"full\\\""));
        // Balanced braces/brackets (cheap well-formedness check).
        assert_eq!(
            json.matches('{').count(),
            json.matches('}').count(),
            "unbalanced braces"
        );
    }

    #[test]
    fn export_merges_extra_events() {
        let mut tr = TraceRecorder::new(cfg(8));
        tr.span_for(Track::HostCpu(0), "x", 1, KIND_NONE, Nanos(0), Nanos(5));
        let extra = vec![
            "{\"ph\":\"C\",\"pid\":0,\"name\":\"pool/free_bytes\",\"ts\":0,\
             \"args\":{\"value\":1}}"
                .to_string(),
        ];
        let json = tr.export_chrome_json_with(&extra);
        assert!(json.contains("\"ph\":\"C\""));
        assert!(json.contains("pool/free_bytes"));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
    }

    #[test]
    fn reversed_span_clamps_to_zero() {
        let mut tr = TraceRecorder::new(cfg(4));
        tr.span_for(Track::HostCpu(0), "x", 1, KIND_NONE, Nanos(100), Nanos(50));
        assert_eq!(tr.events().next().expect("one event").dur, Some(Nanos(0)));
    }

    #[test]
    fn notes_resolve_through_arena() {
        let mut tr = TraceRecorder::new(cfg(8));
        tr.instant_note(Track::HostCpu(0), "a", Nanos(1), "first");
        tr.instant(Track::HostCpu(0), "b", Nanos(2));
        tr.instant_note(Track::HostCpu(0), "c", Nanos(3), "third");
        let notes: Vec<Option<&str>> = {
            let evs: Vec<&TraceEvent> = tr.events().collect();
            evs.iter().map(|e| tr.note_of(e)).collect()
        };
        assert_eq!(notes, vec![Some("first"), None, Some("third")]);
    }

    #[test]
    fn full_ring_does_not_grow_note_arena() {
        let mut tr = TraceRecorder::new(cfg(1));
        tr.instant_note(Track::HostCpu(0), "a", Nanos(1), "kept");
        tr.instant_note(Track::HostCpu(0), "b", Nanos(2), "dropped-note");
        assert_eq!(tr.event_count(), 1);
        assert_eq!(tr.dropped(), 1);
        let ev = tr.events().next().expect("one event");
        assert_eq!(tr.note_of(ev), Some("kept"));
    }
}
