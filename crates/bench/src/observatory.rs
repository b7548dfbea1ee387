//! Campaign observability for one fan-out on the worker pool: the
//! `campaign.jsonl` recorder (when `--campaign-out`), the live progress
//! line (when `--progress`), and the merged engine profile (when
//! `--profile-out`). All default off, so a campaign's output at defaults
//! is untouched by this layer.

use crate::alloc::{self as heap, AllocSnapshot};
use crate::cli::{self, Flags};
use aimes::campaign::{CampaignHooks, CampaignMeta, CampaignRecorder, PoolRecord, Progress};
use aimes::profile::{AllocSection, ProfileAccumulator, ProfileDoc, TimingInputs};
use std::path::PathBuf;
use std::time::Instant;

pub struct Observatory {
    recorder: Option<(PathBuf, CampaignRecorder)>,
    sender: Option<aimes::CampaignSender>,
    progress: Option<Progress>,
    timing: bool,
    /// Per-run profile collection point, merged in job order at close.
    profile: Option<(PathBuf, ProfileAccumulator)>,
    profile_command: String,
    seed: u64,
    alloc_before: AllocSnapshot,
    wall_started: Instant,
}

impl Observatory {
    /// Open the manifest (writing its meta line, which names the campaign
    /// `command`) and reset the pool's accounting so a timing-mode pool
    /// record covers exactly this campaign. `profile_command` names the
    /// campaign in the profile doc.
    pub fn open(
        flags: &Flags,
        command: &str,
        profile_command: &str,
        total_jobs: usize,
    ) -> Observatory {
        let recorder = flags.campaign_out.as_ref().map(|path| {
            let meta = CampaignMeta::new(command, flags.seed, total_jobs as u64);
            let recorder = CampaignRecorder::create(path, &meta, flags.campaign_timing)
                .unwrap_or_else(|e| cli::file_error("write", path, e));
            (path.clone(), recorder)
        });
        if recorder.is_some() {
            rayon::reset_pool_stats();
        }
        Observatory {
            sender: recorder.as_ref().map(|(_, r)| r.sender()),
            recorder,
            progress: flags.progress.then(|| Progress::new(total_jobs as u64)),
            timing: flags.campaign_timing,
            profile: flags
                .profile_out
                .as_ref()
                .map(|path| (path.clone(), ProfileAccumulator::new())),
            profile_command: profile_command.to_string(),
            seed: flags.seed,
            alloc_before: heap::snapshot(),
            wall_started: Instant::now(),
        }
    }

    /// The hooks every run of the campaign reports through.
    pub fn hooks(&self) -> CampaignHooks<'_> {
        CampaignHooks {
            recorder: self.sender.as_ref(),
            progress: self.progress.as_ref(),
            profile: self.profile.as_ref().map(|(_, acc)| acc),
        }
    }

    /// Finish the progress line, canonicalize the manifest (in timing
    /// mode the pool's accounting goes in as the final record), and write
    /// the merged profile document.
    pub fn close(self) {
        if let Some(progress) = &self.progress {
            progress.finish();
        }
        drop(self.sender);
        if let Some((path, recorder)) = self.recorder {
            let pool = self
                .timing
                .then(|| PoolRecord::from_stats(&rayon::pool_stats()));
            if let Err(e) = recorder.close(pool.as_ref()) {
                cli::file_error("write", &path, e);
            }
        }
        let Some((path, acc)) = self.profile else {
            return;
        };
        let merged = acc.merged();
        // Host timing and allocator counters are volatile (worker-count
        // and host dependent), so they are gated exactly like the
        // manifest's wall-clock fields: only present in timing mode.
        let timing = self.timing.then(|| TimingInputs {
            total_wall_secs: self.wall_started.elapsed().as_secs_f64(),
            sequential: false,
            run_walls: Vec::new(),
            alloc: Some(alloc_section(
                &self.alloc_before,
                merged.engine.events_processed,
            )),
        });
        let doc = ProfileDoc::build(
            &self.profile_command,
            self.seed,
            acc.runs(),
            &merged,
            timing,
        );
        write_profile_doc(&path, &doc);
    }
}

/// The allocator counters since `before`, per engine event.
pub fn alloc_section(before: &AllocSnapshot, events: u64) -> AllocSection {
    let delta = heap::snapshot().since(before);
    AllocSection {
        allocs: delta.allocs,
        bytes_allocated: delta.bytes_allocated,
        peak_bytes: delta.peak_bytes,
        allocs_per_event: if events > 0 {
            delta.allocs as f64 / events as f64
        } else {
            0.0
        },
    }
}

/// Validate a profile document and write it to `path`.
pub fn write_profile_doc(path: &std::path::Path, doc: &ProfileDoc) {
    if let Err(e) = doc.validate() {
        cli::fail(&format!(
            "internal error: produced invalid profile doc: {e}"
        ));
    }
    let json = serde_json::to_string_pretty(doc).expect("profile doc serializes");
    cli::write(path, format!("{json}\n"));
    eprintln!("wrote profile doc {}", path.display());
}
