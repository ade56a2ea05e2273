//! The assembled observability plane: registry + journal + the policy
//! that derives both from span traffic.
//!
//! [`ObservabilityPlane`] bundles one [`MetricsRegistry`] and one
//! [`Journal`] with the derived-event policy (the slow-span threshold).
//! It is the optional plane part of the [`SpanSink`]: when the plane is
//! off **no registry or journal call happens anywhere** — the
//! zero-overhead-when-disabled contract.
//!
//! Span traffic reaches the plane without touching engine hot paths: the
//! sink hands it every finished span, and the plane folds the record's
//! I/O counters into live registry counters and journals derived events
//! (slow span, retry, checksum failure, quarantine) with the span's
//! `trace_id`.
//!
//! [`SpanSink`]: crate::SpanSink

use crate::journal::{Journal, JournalEvent, Severity};
use crate::registry::{Counter, MetricsRegistry};
use crate::span::{now_ns, SpanRecord};

/// Registry + journal + derived-event policy. See the module docs.
pub struct ObservabilityPlane {
    registry: MetricsRegistry,
    journal: Journal,
    slow_span_ns: u64,
    // Counters folded out of finished spans, pre-registered so the
    // exposition shows them from the first snapshot.
    bytes_fetched: Counter,
    bytes_written: Counter,
    requests: Counter,
    retries: Counter,
    checksum_failures: Counter,
    quarantines: Counter,
    wal_bytes: Counter,
    group_commits: Counter,
    slow_spans: Counter,
    bytes_returned: Counter,
}

impl std::fmt::Debug for ObservabilityPlane {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ObservabilityPlane")
            .field("registry", &self.registry)
            .field("journal", &self.journal)
            .field("slow_span_ns", &self.slow_span_ns)
            .finish()
    }
}

impl ObservabilityPlane {
    /// A plane whose journal retains `journal_capacity` events and whose
    /// slow-span threshold is `slow_span_ns` (0 disables slow-span
    /// events).
    pub fn new(journal_capacity: usize, slow_span_ns: u64) -> ObservabilityPlane {
        let registry = MetricsRegistry::new();
        let c = |name: &str, help: &str| registry.counter(name, help);
        ObservabilityPlane {
            bytes_fetched: c(
                "artsparse_bytes_fetched_total",
                "Bytes returned by backend reads.",
            ),
            bytes_written: c(
                "artsparse_bytes_written_total",
                "Bytes handed to backend writes.",
            ),
            requests: c("artsparse_requests_total", "Backend requests issued."),
            retries: c(
                "artsparse_retries_total",
                "Backend fetches re-attempted after transient failures.",
            ),
            checksum_failures: c(
                "artsparse_checksum_failures_total",
                "Section or header CRC32C verifications that failed.",
            ),
            quarantines: c(
                "artsparse_quarantines_total",
                "Fragments newly quarantined after integrity failures.",
            ),
            wal_bytes: c(
                "artsparse_wal_bytes_total",
                "Bytes appended to the streaming-ingest write-ahead log.",
            ),
            group_commits: c(
                "artsparse_group_commits_total",
                "Write-buffer flushes that produced a fragment.",
            ),
            slow_spans: c(
                "artsparse_slow_spans_total",
                "Spans that exceeded the configured slow-span threshold.",
            ),
            bytes_returned: c(
                "artsparse_read_bytes_returned_total",
                "Value bytes handed back to read callers.",
            ),
            registry,
            journal: Journal::new(journal_capacity),
            slow_span_ns,
        }
    }

    /// The live registry.
    pub fn registry(&self) -> &MetricsRegistry {
        &self.registry
    }

    /// The event journal.
    pub fn journal(&self) -> &Journal {
        &self.journal
    }

    /// The slow-span threshold in nanoseconds (0 = disabled).
    pub fn slow_span_ns(&self) -> u64 {
        self.slow_span_ns
    }

    /// Credit value bytes handed back to a read caller (the denominator
    /// of the derived read-amplification gauge).
    pub fn note_read_returned(&self, bytes: u64) {
        self.bytes_returned.add(bytes);
    }

    /// Bytes fetched ÷ bytes returned so far, or `None` before any read
    /// returned data.
    pub fn read_amplification(&self) -> Option<f64> {
        let returned = self.bytes_returned.get();
        (returned > 0).then(|| self.bytes_fetched.get() as f64 / returned as f64)
    }

    /// Record an explicit journal event (scheduler errors, lifecycle
    /// notices — anything not derivable from a span record).
    pub fn event(&self, severity: Severity, code: &'static str, message: String, trace_id: u64) {
        self.journal.record(JournalEvent {
            at_ns: now_ns(),
            severity,
            code,
            message,
            trace_id,
            span: None,
            dur_ns: None,
        });
    }

    /// Fold one finished span into the plane: live counters plus derived
    /// journal events. Called by the [`SpanSink`](crate::SpanSink).
    pub(crate) fn observe_span(&self, record: &SpanRecord) {
        let io = &record.io;
        self.bytes_fetched.add(io.bytes_fetched);
        self.bytes_written.add(io.bytes_written);
        self.requests.add(io.requests);
        self.retries.add(io.retries);
        self.checksum_failures.add(io.checksum_failures);
        self.quarantines.add(io.fragments_quarantined);
        self.wal_bytes.add(io.wal_bytes);
        self.group_commits.add(io.group_commits);

        let name = record.kind.name();
        if self.slow_span_ns > 0 && record.dur_ns >= self.slow_span_ns {
            self.slow_spans.inc();
            self.journal.record(JournalEvent {
                at_ns: now_ns(),
                severity: Severity::Warn,
                code: "slow_span",
                message: format!(
                    "{name} took {} ms (threshold {} ms)",
                    record.dur_ns / 1_000_000,
                    self.slow_span_ns / 1_000_000
                ),
                trace_id: record.trace_id,
                span: Some(name),
                dur_ns: Some(record.dur_ns),
            });
        }
        if io.retries > 0 {
            self.journal.record(JournalEvent {
                at_ns: now_ns(),
                severity: Severity::Warn,
                code: "retry",
                message: format!(
                    "{} backend retr{} during {name}",
                    io.retries,
                    if io.retries == 1 { "y" } else { "ies" }
                ),
                trace_id: record.trace_id,
                span: Some(name),
                dur_ns: Some(record.dur_ns),
            });
        }
        if io.checksum_failures > 0 {
            self.journal.record(JournalEvent {
                at_ns: now_ns(),
                severity: Severity::Error,
                code: "checksum_failure",
                message: format!("{} checksum failure(s) during {name}", io.checksum_failures),
                trace_id: record.trace_id,
                span: Some(name),
                dur_ns: Some(record.dur_ns),
            });
        }
        if io.fragments_quarantined > 0 {
            self.journal.record(JournalEvent {
                at_ns: now_ns(),
                severity: Severity::Error,
                code: "quarantine",
                message: format!(
                    "{} fragment(s) quarantined during {name}",
                    io.fragments_quarantined
                ),
                trace_id: record.trace_id,
                span: Some(name),
                dur_ns: Some(record.dur_ns),
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sink::{SpanSink, DEFAULT_EVENT_CAPACITY};
    use crate::span::{charge, Span, SpanKind};
    use std::sync::Arc;

    /// A sink whose only part is a plane with the given slow-span
    /// threshold.
    fn observed(slow_span_ns: u64) -> Arc<SpanSink> {
        Arc::new(SpanSink::new(
            None,
            Some(ObservabilityPlane::new(64, slow_span_ns)),
        ))
    }

    #[test]
    fn spans_fold_into_live_counters() {
        let s = observed(0);
        {
            let _s = Span::enter(Some(&s), SpanKind::Ingest);
            charge(|io| {
                io.wal_bytes += 128;
                io.bytes_written += 256;
                io.requests += 2;
            });
        }
        let p = s.plane().unwrap();
        let snap = p.registry().snapshot();
        assert_eq!(
            snap.sample("artsparse_wal_bytes_total").unwrap().value,
            128.0
        );
        assert_eq!(
            snap.sample("artsparse_bytes_written_total").unwrap().value,
            256.0
        );
        assert_eq!(snap.sample("artsparse_requests_total").unwrap().value, 2.0);
        assert!(p.journal().is_empty(), "healthy spans journal nothing");
    }

    #[test]
    fn a_sink_with_both_parts_feeds_report_and_plane() {
        let s = Arc::new(SpanSink::new(
            Some(DEFAULT_EVENT_CAPACITY),
            Some(ObservabilityPlane::new(64, 0)),
        ));
        {
            let _s = Span::enter(Some(&s), SpanKind::Read);
            charge(|io| io.bytes_fetched += 512);
        }
        let report = s.report().unwrap();
        assert_eq!(report.totals.bytes_fetched, 512);
        assert_eq!(
            s.plane()
                .unwrap()
                .registry()
                .snapshot()
                .sample("artsparse_bytes_fetched_total")
                .unwrap()
                .value,
            512.0
        );
    }

    #[test]
    fn trouble_spans_produce_trace_correlated_events() {
        let s = observed(1); // 1ns: everything is slow
        let trace = {
            let _s = Span::enter(Some(&s), SpanKind::Consolidate);
            let trace = crate::span::current_trace_id();
            charge(|io| {
                io.retries += 2;
                io.checksum_failures += 1;
                io.fragments_quarantined += 1;
            });
            trace
        };
        let events = s.plane().unwrap().journal().drain_new();
        let codes: Vec<&str> = events.iter().map(|e| e.code).collect();
        assert!(codes.contains(&"slow_span"));
        assert!(codes.contains(&"retry"));
        assert!(codes.contains(&"checksum_failure"));
        assert!(codes.contains(&"quarantine"));
        for e in &events {
            assert_eq!(e.trace_id, trace);
            assert_eq!(e.span, Some("engine.consolidate"));
        }
        assert_eq!(
            events.iter().find(|e| e.code == "retry").unwrap().severity,
            Severity::Warn
        );
        assert_eq!(
            events
                .iter()
                .find(|e| e.code == "quarantine")
                .unwrap()
                .severity,
            Severity::Error
        );
    }

    #[test]
    fn read_amplification_derives_from_fetched_over_returned() {
        let s = observed(0);
        let p = s.plane().unwrap();
        assert_eq!(p.read_amplification(), None);
        {
            let _s = Span::enter(Some(&s), SpanKind::Read);
            charge(|io| io.bytes_fetched += 4096);
        }
        p.note_read_returned(1024);
        assert_eq!(p.read_amplification(), Some(4.0));
    }
}
