//! The run log: the one path every journal-shaped event of a run takes.
//!
//! A `RunLog` feeds two stores from one call. The *flight recorder* is
//! a bounded, always-on ring of the run's most recent events; the
//! *journal* ([`crate::journal`]) is opt-in and complete. Because both
//! are fed by `RunLog::record`, the dump tail and the journal tail of
//! one run agree by construction. The tracer stays separate: opt-in and
//! verbose.
//!
//! The ring keeps typed events. Text is rendered only when someone reads
//! the ring (`RunLog::snapshot`), so the always-on part costs one
//! `VecDeque` rotation per event. On any `RunError`, a detector
//! Declared-Dead verdict or a domain alarm the middleware calls
//! `RunLog::dump`, which freezes the ring into a self-verifying text
//! file.
//!
//! Recording is strictly passive: no simulation events, no RNG draws —
//! the recorder changes nothing in the journal (pinned by the
//! golden-journal tests).
//!
//! Snapshot format (one line per retained event, FNV-1a-64 checksum over
//! the body):
//!
//! ```text
//! # flight-recorder snapshot v1
//! # reason: resource-lost-one
//! # total: 214 dropped: 150 retained: 64
//! 150 9180.000 {"type":"UnitTransition",...}
//! ...
//! 213 9600.000 {"type":"Detector",...}
//! # checksum: fnv1a64 4f0e6c2a91b7d3e5
//! ```

use serde::{Deserialize, Serialize};
use std::cell::RefCell;
use std::collections::VecDeque;
use std::path::PathBuf;
use std::rc::Rc;
use std::sync::atomic::{AtomicU64, Ordering};

use crate::journal::{JournalEvent, RunJournal};
use aimes_sim::SimTime;

/// Ring capacity: enough to hold the tail of a large run while staying
/// cheap to snapshot.
pub const DEFAULT_RECORDER_CAPACITY: usize = 256;

/// One retained event as a snapshot shows it: a monotone sequence
/// number, the simulation time, and the journal event's JSON line.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct RecorderEvent {
    pub seq: u64,
    pub at_secs: f64,
    pub what: String,
}

/// Handle to one run's log: the ring, the caller's optional journal and
/// where dumps go. Clones share the same log.
#[derive(Clone)]
pub(crate) struct RunLog {
    inner: Rc<RefCell<LogState>>,
}

struct LogState {
    /// The retained tail, oldest first. Sequence numbers are implicit:
    /// the front holds `total - ring.len()`.
    ring: VecDeque<(SimTime, JournalEvent)>,
    /// Events recorded since construction, dropped ones included.
    total: u64,
    journal: Option<Rc<RefCell<RunJournal>>>,
    /// Dump policy: no directory keeps the recorder purely in memory.
    dump_dir: Option<PathBuf>,
    tag: Option<String>,
    seed: u64,
}

impl RunLog {
    /// A log for the run with `seed`, appending to `journal` when given
    /// and writing dumps into `dump_dir` when given. `tag` disambiguates
    /// dump filenames of runs that share a seed and a directory.
    pub(crate) fn new(
        seed: u64,
        journal: Option<Rc<RefCell<RunJournal>>>,
        dump_dir: Option<PathBuf>,
        tag: Option<String>,
    ) -> Self {
        RunLog {
            inner: Rc::new(RefCell::new(LogState {
                ring: VecDeque::with_capacity(DEFAULT_RECORDER_CAPACITY),
                total: 0,
                journal,
                dump_dir,
                tag,
                seed,
            })),
        }
    }

    /// Record one event: into the ring always, into the journal when the
    /// run has one.
    pub(crate) fn record(&self, at: SimTime, event: JournalEvent) {
        let mut st = self.inner.borrow_mut();
        if let Some(journal) = &st.journal {
            journal.borrow_mut().record(at, event.clone());
        }
        if st.ring.len() == DEFAULT_RECORDER_CAPACITY {
            st.ring.pop_front();
        }
        st.ring.push_back((at, event));
        st.total += 1;
    }

    /// Freeze the ring into a checksummed snapshot, rendering each
    /// retained event as the JSON line the journal holds for it.
    pub(crate) fn snapshot(&self, reason: &str) -> RecorderSnapshot {
        let st = self.inner.borrow();
        let dropped = st.total - st.ring.len() as u64;
        let events = st
            .ring
            .iter()
            .zip(dropped..)
            .map(|((at, event), seq)| RecorderEvent {
                seq,
                at_secs: at.as_secs(),
                what: serde_json::to_string(event).unwrap_or_default(),
            })
            .collect();
        RecorderSnapshot {
            reason: reason.to_string(),
            total_events: st.total,
            dropped,
            events,
        }
    }

    /// Write a snapshot into the dump directory (no-op when unset), as
    /// `flight-{tag}-{seed}-{reason}.txt` or `flight-{seed}-{reason}.txt`.
    /// Dump failures are swallowed: post-mortem writing must never turn
    /// a diagnosable death into a different one.
    ///
    /// Concurrent runs (the worker pool) may share the directory, and
    /// paired-seed sweep arms may even share the seed; the tag keeps
    /// their filenames apart, and the write goes to a unique temp file
    /// followed by an atomic rename so a reader never observes a
    /// half-written or interleaved dump.
    pub(crate) fn dump(&self, reason: &str) {
        let st = self.inner.borrow();
        let Some(dir) = &st.dump_dir else { return };
        let tag = st.tag.as_deref().map(|t| sanitize(t) + "-");
        let name = format!(
            "flight-{}{}-{}.txt",
            tag.unwrap_or_default(),
            st.seed,
            sanitize(reason)
        );
        let _ = std::fs::create_dir_all(dir);
        static DUMP_SEQ: AtomicU64 = AtomicU64::new(0);
        let tmp = dir.join(format!(
            "{name}.tmp-{}-{}",
            std::process::id(),
            DUMP_SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        let written = std::fs::write(&tmp, self.snapshot(reason).to_text());
        if written
            .and_then(|()| std::fs::rename(&tmp, dir.join(&name)))
            .is_err()
        {
            let _ = std::fs::remove_file(&tmp);
        }
    }
}

/// Filename-safe form of a tag or reason: anything outside
/// `[a-zA-Z0-9-]` becomes `-`.
fn sanitize(s: &str) -> String {
    let safe = |c: char| c.is_ascii_alphanumeric() || c == '-';
    s.chars().map(|c| if safe(c) { c } else { '-' }).collect()
}

/// A frozen, checksummed post-mortem snapshot.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct RecorderSnapshot {
    pub reason: String,
    /// Events recorded over the run's lifetime.
    pub total_events: u64,
    /// Events that fell off the front of the ring.
    pub dropped: u64,
    /// The retained tail, oldest first, contiguous sequence numbers.
    pub events: Vec<RecorderEvent>,
}

/// FNV-1a 64 over a byte string — the same dependency-free digest the
/// golden-journal tests use.
fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

impl RecorderSnapshot {
    /// The checksummed body: header counts plus one line per event.
    fn body(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "# reason: {}\n# total: {} dropped: {} retained: {}\n",
            self.reason,
            self.total_events,
            self.dropped,
            self.events.len()
        ));
        for e in &self.events {
            out.push_str(&format!("{} {:.3} {}\n", e.seq, e.at_secs, e.what));
        }
        out
    }

    /// The snapshot's checksum (FNV-1a-64 over the body), as hex.
    pub fn checksum(&self) -> String {
        format!("{:016x}", fnv1a64(self.body().as_bytes()))
    }

    /// Serialize to the dump format.
    pub fn to_text(&self) -> String {
        format!(
            "# flight-recorder snapshot v1\n{}# checksum: fnv1a64 {}\n",
            self.body(),
            self.checksum()
        )
    }

    /// Parse a dump and verify its checksum and internal consistency.
    pub fn from_text(text: &str) -> Result<RecorderSnapshot, String> {
        let mut lines = text.lines();
        match lines.next() {
            Some("# flight-recorder snapshot v1") => {}
            other => return Err(format!("bad snapshot header: {other:?}")),
        }
        let reason = lines
            .next()
            .and_then(|l| l.strip_prefix("# reason: "))
            .ok_or("missing reason line")?
            .to_string();
        let counts = lines
            .next()
            .and_then(|l| l.strip_prefix("# total: "))
            .ok_or("missing counts line")?;
        let parts: Vec<&str> = counts.split_whitespace().collect();
        // "{total} dropped: {dropped} retained: {retained}"
        if parts.len() != 5 || parts[1] != "dropped:" || parts[3] != "retained:" {
            return Err(format!("malformed counts line `{counts}`"));
        }
        let total_events: u64 = parts[0].parse().map_err(|_| "bad total".to_string())?;
        let dropped: u64 = parts[2].parse().map_err(|_| "bad dropped".to_string())?;
        let retained: usize = parts[4].parse().map_err(|_| "bad retained".to_string())?;

        let mut events = Vec::with_capacity(retained);
        let mut checksum_line = None;
        for line in lines {
            if let Some(rest) = line.strip_prefix("# checksum: fnv1a64 ") {
                checksum_line = Some(rest.trim().to_string());
                break;
            }
            let mut fields = line.splitn(3, ' ');
            let seq: u64 = fields
                .next()
                .and_then(|s| s.parse().ok())
                .ok_or_else(|| format!("bad event line `{line}`"))?;
            let at_secs: f64 = fields
                .next()
                .and_then(|s| s.parse().ok())
                .ok_or_else(|| format!("bad event line `{line}`"))?;
            let what = fields.next().unwrap_or("").to_string();
            events.push(RecorderEvent { seq, at_secs, what });
        }
        let snapshot = RecorderSnapshot {
            reason,
            total_events,
            dropped,
            events,
        };
        let declared = checksum_line.ok_or("missing checksum line")?;
        let actual = snapshot.checksum();
        if declared != actual {
            return Err(format!(
                "checksum mismatch: declared {declared}, computed {actual} — dump is torn or tampered"
            ));
        }
        snapshot.verify()?;
        Ok(snapshot)
    }

    /// Internal consistency: counts add up and the retained tail is a
    /// contiguous, monotone run of sequence numbers ending at
    /// `total_events - 1` — i.e. the tail really reconstructs the last N
    /// events.
    pub fn verify(&self) -> Result<(), String> {
        if self.dropped + self.events.len() as u64 != self.total_events {
            return Err(format!(
                "counts disagree: dropped {} + retained {} != total {}",
                self.dropped,
                self.events.len(),
                self.total_events
            ));
        }
        for (i, e) in self.events.iter().enumerate() {
            let expect = self.dropped + i as u64;
            if e.seq != expect {
                return Err(format!(
                    "sequence gap at index {i}: expected {expect}, found {}",
                    e.seq
                ));
            }
        }
        if let Some(last) = self.events.last() {
            if last.seq + 1 != self.total_events {
                return Err("tail does not end at the last recorded event".into());
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(s: f64) -> SimTime {
        SimTime::from_secs(s)
    }

    fn finished(i: u64) -> JournalEvent {
        JournalEvent::RunFinished { ttc_secs: i as f64 }
    }

    fn json(event: &JournalEvent) -> String {
        serde_json::to_string(event).unwrap()
    }

    #[test]
    fn ring_retains_only_the_tail() {
        let log = RunLog::new(0, None, None, None);
        let n = DEFAULT_RECORDER_CAPACITY as u64 + 10;
        for i in 0..n {
            log.record(t(i as f64), finished(i));
        }
        let snap = log.snapshot("test");
        assert_eq!(snap.total_events, n);
        assert_eq!(snap.dropped, 10);
        assert_eq!(snap.events.len(), DEFAULT_RECORDER_CAPACITY);
        assert_eq!(snap.events[0].seq, 10);
        assert_eq!(snap.events[0].what, json(&finished(10)));
        assert_eq!(snap.events.last().unwrap().seq, n - 1);
        snap.verify().expect("tail is contiguous");
    }

    #[test]
    fn every_record_reaches_the_journal_and_the_ring_alike() {
        let journal = Rc::new(RefCell::new(RunJournal::new()));
        let log = RunLog::new(0, Some(journal.clone()), None, None);
        log.record(t(1.0), finished(1));
        log.record(
            t(2.0),
            JournalEvent::Replan {
                resource: "one".into(),
                pilots: 2,
            },
        );
        let snap = log.snapshot("test");
        let journal = journal.borrow();
        assert_eq!(snap.total_events, journal.len() as u64);
        for (line, entry) in snap.events.iter().zip(journal.entries()) {
            assert_eq!(line.seq, entry.seq);
            assert_eq!(line.at_secs, entry.at_secs);
            assert_eq!(line.what, json(&entry.event));
        }
    }

    #[test]
    fn snapshot_roundtrips_with_checksum() {
        let log = RunLog::new(0, None, None, None);
        for i in 0..6u64 {
            log.record(
                t(100.0 + i as f64),
                JournalEvent::Blacklist {
                    resource: format!("r{i}"),
                },
            );
        }
        let snap = log.snapshot("resource-lost-one");
        let text = snap.to_text();
        assert!(text.starts_with("# flight-recorder snapshot v1\n"));
        assert!(text.contains("# reason: resource-lost-one"));
        assert!(text.contains("5 105.000 {\"type\":\"Blacklist\",\"resource\":\"r5\"}\n"));
        let back = RecorderSnapshot::from_text(&text).expect("parses and verifies");
        assert_eq!(back, snap);
    }

    #[test]
    fn tampered_dumps_are_rejected() {
        let log = RunLog::new(0, None, None, None);
        log.record(t(1.0), finished(1));
        log.record(t(2.0), finished(2));
        let text = log.snapshot("x").to_text();
        let tampered = text.replace(":2.0}", ":3.0}");
        assert_ne!(tampered, text);
        assert!(
            RecorderSnapshot::from_text(&tampered)
                .unwrap_err()
                .contains("checksum mismatch"),
            "edited payload must fail verification"
        );
        let torn = text
            .lines()
            .filter(|l| !l.starts_with("# checksum"))
            .collect::<Vec<_>>()
            .join("\n");
        assert!(RecorderSnapshot::from_text(&torn)
            .unwrap_err()
            .contains("missing checksum"));
    }

    #[test]
    fn empty_log_snapshots_cleanly() {
        let log = RunLog::new(0, None, None, None);
        let snap = log.snapshot("early-death");
        assert_eq!(snap.total_events, 0);
        let back = RecorderSnapshot::from_text(&snap.to_text()).unwrap();
        assert_eq!(back.events.len(), 0);
    }
}
