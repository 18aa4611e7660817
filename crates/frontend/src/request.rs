//! The request/response vocabulary of the frontend, and the [`Ticket`]
//! a caller holds while an admitted request is queued or executing.

use std::sync::Arc;

use parking_lot::{Condvar, Mutex};
use slim_gnode::GNodeCycleStats;
use slim_lnode::RestoreStats;
use slim_types::{FileId, Result, SlimError, VersionId};
use slimstore::{RetentionReport, SlimStore, VersionBackupReport};

use crate::policy::Priority;

/// One tenant-facing operation.
#[derive(Debug)]
pub enum Request {
    /// Back up one new version of the given files.
    Backup {
        files: Vec<(FileId, Vec<u8>)>,
        jobs: usize,
    },
    /// Restore one file at one version.
    RestoreFile { file: FileId, version: VersionId },
    /// Restore every file of a version.
    RestoreVersion { version: VersionId, jobs: usize },
    /// Run the offline G-node cycle for a version.
    GNodeCycle { version: VersionId },
    /// FIFO retention sweep keeping the newest `keep` versions.
    RetainLast { keep: usize },
}

impl Request {
    /// The scheduling class this request belongs to.
    pub fn priority(&self) -> Priority {
        match self {
            Request::RestoreFile { .. } | Request::RestoreVersion { .. } => Priority::Restore,
            Request::Backup { .. } => Priority::Backup,
            Request::GNodeCycle { .. } | Request::RetainLast { .. } => Priority::Maintenance,
        }
    }

    /// Scheduling cost in bytes (never zero). Backups declare their payload
    /// size up front; restores and maintenance cannot know theirs before
    /// running, so they cost one unit — the byte budget then meters them by
    /// concurrency rather than volume.
    pub fn cost_bytes(&self) -> u64 {
        match self {
            Request::Backup { files, .. } => files
                .iter()
                .map(|(_, bytes)| bytes.len() as u64)
                .sum::<u64>()
                .max(1),
            _ => 1,
        }
    }

    /// Short label for error messages.
    pub fn label(&self) -> &'static str {
        match self {
            Request::Backup { .. } => "backup",
            Request::RestoreFile { .. } => "restore_file",
            Request::RestoreVersion { .. } => "restore_version",
            Request::GNodeCycle { .. } => "gnode_cycle",
            Request::RetainLast { .. } => "retain_last",
        }
    }

    /// Execute against a tenant deployment (called by a dispatcher worker).
    pub(crate) fn execute(self, store: &SlimStore) -> Result<Response> {
        match self {
            Request::Backup { files, jobs } => store
                .backup_version_with_jobs(files, jobs)
                .map(Response::Backup),
            Request::RestoreFile { file, version } => store
                .restore_file(&file, version)
                .map(|(bytes, stats)| Response::File { bytes, stats }),
            Request::RestoreVersion { version, jobs } => {
                store.restore_version(version, jobs).map(Response::Version)
            }
            Request::GNodeCycle { version } => {
                store.run_gnode_cycle(version).map(Response::Maintenance)
            }
            Request::RetainLast { keep } => store.retain_last(keep).map(Response::Retention),
        }
    }
}

/// Successful outcome of a [`Request`], same shape as the direct
/// [`SlimStore`] call the frontend executed on the caller's behalf.
#[derive(Debug)]
pub enum Response {
    /// Outcome of [`Request::Backup`].
    Backup(VersionBackupReport),
    /// Outcome of [`Request::RestoreFile`].
    File { bytes: Vec<u8>, stats: RestoreStats },
    /// Outcome of [`Request::RestoreVersion`].
    Version(Vec<(FileId, Vec<u8>, RestoreStats)>),
    /// Outcome of [`Request::GNodeCycle`].
    Maintenance(GNodeCycleStats),
    /// Outcome of [`Request::RetainLast`].
    Retention(RetentionReport),
}

impl Response {
    /// The backup report, or an error if this response is another kind.
    pub fn into_backup(self) -> Result<VersionBackupReport> {
        match self {
            Response::Backup(report) => Ok(report),
            other => Err(other.kind_mismatch("backup")),
        }
    }

    /// The restored file bytes + stats, or an error for other kinds.
    pub fn into_file(self) -> Result<(Vec<u8>, RestoreStats)> {
        match self {
            Response::File { bytes, stats } => Ok((bytes, stats)),
            other => Err(other.kind_mismatch("file")),
        }
    }

    /// The restored version file set, or an error for other kinds.
    pub fn into_version(self) -> Result<Vec<(FileId, Vec<u8>, RestoreStats)>> {
        match self {
            Response::Version(files) => Ok(files),
            other => Err(other.kind_mismatch("version")),
        }
    }

    /// The maintenance cycle stats, or an error for other kinds.
    pub fn into_maintenance(self) -> Result<GNodeCycleStats> {
        match self {
            Response::Maintenance(stats) => Ok(stats),
            other => Err(other.kind_mismatch("maintenance")),
        }
    }

    /// The retention report, or an error for other kinds.
    pub fn into_retention(self) -> Result<RetentionReport> {
        match self {
            Response::Retention(report) => Ok(report),
            other => Err(other.kind_mismatch("retention")),
        }
    }

    fn kind_mismatch(&self, wanted: &str) -> SlimError {
        let got = match self {
            Response::Backup(_) => "backup",
            Response::File { .. } => "file",
            Response::Version(_) => "version",
            Response::Maintenance(_) => "maintenance",
            Response::Retention(_) => "retention",
        };
        SlimError::InvalidConfig(format!("expected a {wanted} response, got {got}"))
    }
}

/// Shared completion slot between a [`Ticket`] and the dispatcher.
#[derive(Default)]
pub(crate) struct TicketState {
    slot: Mutex<Option<Result<Response>>>,
    done: Condvar,
}

impl TicketState {
    /// Deliver the outcome and wake every waiter. Delivering twice is a
    /// scheduler bug; the first outcome wins and the second is dropped.
    pub fn complete(&self, outcome: Result<Response>) {
        let mut slot = self.slot.lock();
        if slot.is_none() {
            *slot = Some(outcome);
        }
        self.done.notify_all();
    }
}

/// Handle to one admitted request. Obtain the outcome with
/// [`Ticket::wait`]; dropping the ticket abandons the result but never
/// cancels the request — admitted work always runs (or is shed by its
/// deadline) regardless of whether anyone is still watching.
pub struct Ticket {
    state: Arc<TicketState>,
}

impl Ticket {
    pub(crate) fn new() -> (Ticket, Arc<TicketState>) {
        let state = Arc::new(TicketState::default());
        (
            Ticket {
                state: state.clone(),
            },
            state,
        )
    }

    /// Block until the request completes (successfully, with its
    /// operation's error, or shed with [`SlimError::Overloaded`]).
    pub fn wait(self) -> Result<Response> {
        let mut slot = self.state.slot.lock();
        while slot.is_none() {
            self.state.done.wait(&mut slot);
        }
        slot.take().expect("guarded by loop")
    }

    /// Whether the outcome is already available ([`Ticket::wait`] would
    /// return without blocking).
    pub fn is_done(&self) -> bool {
        self.state.slot.lock().is_some()
    }
}

/// The outcome may hold a whole restored version, so only completion shows.
impl std::fmt::Debug for Ticket {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Ticket")
            .field("done", &self.is_done())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn priorities_and_costs() {
        let backup = Request::Backup {
            files: vec![(FileId::new("f"), vec![0u8; 1000])],
            jobs: 1,
        };
        assert_eq!(backup.priority(), Priority::Backup);
        assert_eq!(backup.cost_bytes(), 1000);
        let restore = Request::RestoreFile {
            file: FileId::new("f"),
            version: VersionId(0),
        };
        assert_eq!(restore.priority(), Priority::Restore);
        assert_eq!(restore.cost_bytes(), 1);
        let maint = Request::GNodeCycle {
            version: VersionId(0),
        };
        assert_eq!(maint.priority(), Priority::Maintenance);
        assert_eq!(
            Request::RetainLast { keep: 3 }.priority(),
            Priority::Maintenance
        );
        // An empty backup still has positive cost.
        let empty = Request::Backup {
            files: vec![],
            jobs: 1,
        };
        assert_eq!(empty.cost_bytes(), 1);
    }

    #[test]
    fn ticket_completes_once() {
        let (ticket, state) = Ticket::new();
        assert!(!ticket.is_done());
        state.complete(Err(SlimError::Overloaded("first".into())));
        state.complete(Err(SlimError::Overloaded("second".into())));
        match ticket.wait() {
            Err(SlimError::Overloaded(msg)) => assert_eq!(msg, "first"),
            other => panic!("unexpected outcome: {other:?}"),
        }
    }

    #[test]
    fn ticket_wait_blocks_until_completion() {
        let (ticket, state) = Ticket::new();
        let handle = std::thread::spawn(move || ticket.wait());
        std::thread::sleep(std::time::Duration::from_millis(10));
        state.complete(Err(SlimError::Overloaded("late".into())));
        assert!(handle.join().unwrap().is_err());
    }

    #[test]
    fn response_kind_accessors() {
        let r = Response::Retention(RetentionReport::default());
        assert!(r.into_retention().is_ok());
        let r = Response::File {
            bytes: vec![1, 2],
            stats: RestoreStats::default(),
        };
        assert!(r.into_backup().is_err());
    }
}
