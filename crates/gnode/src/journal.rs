//! The G-node maintenance intent journal.
//!
//! Maintenance mutates shared state (containers, recipes, the global index)
//! in multi-object steps with no transactional OSS primitive underneath, so
//! every destructive step first records an **intent**: a small, CRC-sealed
//! OSS object describing the idempotent operation about to run. A cycle
//! killed at any point leaves its intents behind; [`crate::GNode::recover`]
//! replays them in sequence order, rolling each forward (when its outputs
//! are durable and intact) or back (when they are missing or corrupt), and
//! retires them once the journal's promise is discharged.
//!
//! Intents are deliberately *descriptions of convergence*, not redo logs:
//! replaying one against an already-completed state is a no-op, so recovery
//! never needs to know how far the dead cycle got.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use slim_oss::ObjectStore;
use slim_types::codec::{Reader, Writer};
use slim_types::{crc, layout, ContainerId, Fingerprint, Result, SlimError};

const INTENT_MAGIC: &[u8; 4] = b"SLJI";
const INTENT_VERSION: u8 = 1;

/// One idempotent maintenance operation, recorded before it runs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Intent {
    /// Two-phase container rewrite: `new` is a fresh container holding the
    /// live chunks of `old`; once the index repoints at `new` durably, `old`
    /// is deleted. Roll forward if `new` is intact, roll back otherwise.
    RewriteContainer { old: ContainerId, new: ContainerId },
    /// Containers about to be deleted whose index entries are already gone
    /// (or repointed by an earlier intent). Replay re-deletes; deletion is
    /// idempotent.
    DropContainers { ids: Vec<ContainerId> },
    /// Fingerprints whose authoritative copy moved to a new container.
    /// Replay re-relocates each entry whose target container still holds a
    /// live copy — the marks on the old copies may be durable while the
    /// index update was lost with the memtable.
    RepointIndex {
        entries: Vec<(Fingerprint, ContainerId)>,
    },
    /// Redundancy-plane objects (replicas, parity blocks, group manifests)
    /// about to be dropped by a re-tier pass. Replay re-deletes; deletion is
    /// idempotent, so a crash between record and delete rolls forward.
    DropObjects { keys: Vec<String> },
}

impl Intent {
    /// Encode to the sealed on-OSS representation.
    pub fn encode(&self) -> bytes::Bytes {
        let mut w = Writer::with_header(INTENT_MAGIC, INTENT_VERSION);
        match self {
            Intent::RewriteContainer { old, new } => {
                w.u8(1);
                w.u64(old.0);
                w.u64(new.0);
            }
            Intent::DropContainers { ids } => {
                w.u8(2);
                w.u32(ids.len() as u32);
                for id in ids {
                    w.u64(id.0);
                }
            }
            Intent::RepointIndex { entries } => {
                w.u8(3);
                w.u32(entries.len() as u32);
                for (fp, id) in entries {
                    w.fingerprint(fp);
                    w.u64(id.0);
                }
            }
            Intent::DropObjects { keys } => {
                w.u8(4);
                w.u32(keys.len() as u32);
                for key in keys {
                    w.string(key);
                }
            }
        }
        crc::seal(&w.freeze())
    }

    /// Decode a sealed intent record; CRC and structural damage both surface
    /// as [`SlimError::Corrupt`].
    pub fn decode(buf: &bytes::Bytes) -> Result<Intent> {
        let payload = crc::unseal(buf, "journal intent")?;
        let mut r = Reader::new(&payload, "journal intent");
        r.expect_header(INTENT_MAGIC, INTENT_VERSION)?;
        let intent = match r.u8()? {
            1 => Intent::RewriteContainer {
                old: ContainerId(r.u64()?),
                new: ContainerId(r.u64()?),
            },
            2 => {
                let n = r.count(8)?;
                let mut ids = Vec::with_capacity(n);
                for _ in 0..n {
                    ids.push(ContainerId(r.u64()?));
                }
                Intent::DropContainers { ids }
            }
            3 => {
                let n = r.count(20 + 8)?;
                let mut entries = Vec::with_capacity(n);
                for _ in 0..n {
                    let fp = r.fingerprint()?;
                    entries.push((fp, ContainerId(r.u64()?)));
                }
                Intent::RepointIndex { entries }
            }
            4 => {
                let n = r.count(4)?;
                let mut keys = Vec::with_capacity(n);
                for _ in 0..n {
                    keys.push(r.string()?);
                }
                Intent::DropObjects { keys }
            }
            other => {
                return Err(SlimError::corrupt(
                    "journal intent",
                    format!("unknown intent kind {other}"),
                ))
            }
        };
        r.finish()?;
        Ok(intent)
    }
}

/// The OSS-backed intent journal. One per G-node; records are keyed by a
/// monotonic sequence number recovered on open, so replay order equals
/// record order.
pub struct Journal {
    oss: Arc<dyn ObjectStore>,
    next_seq: AtomicU64,
}

impl Journal {
    /// Open the journal, recovering the sequence allocator from the highest
    /// existing record key.
    pub fn open(oss: Arc<dyn ObjectStore>) -> Self {
        let next = oss
            .list(layout::JOURNAL_PREFIX)
            .iter()
            .filter_map(|k| layout::parse_journal_seq(k))
            .max()
            .map(|m| m + 1)
            .unwrap_or(0);
        Journal {
            oss,
            next_seq: AtomicU64::new(next),
        }
    }

    /// Durably record `intent` before acting on it. Returns the sequence
    /// number to pass to [`Journal::retire`] once the operation's effects
    /// are durable.
    pub fn record(&self, intent: &Intent) -> Result<u64> {
        let seq = self.next_seq.fetch_add(1, Ordering::SeqCst);
        self.oss
            .put(&layout::journal_intent(seq), intent.encode())?;
        Ok(seq)
    }

    /// Discharge a recorded intent. Idempotent.
    pub fn retire(&self, seq: u64) -> Result<()> {
        self.oss.delete(&layout::journal_intent(seq))
    }

    /// All outstanding intents in sequence order, plus the keys of any
    /// journal records that failed their CRC or structural checks — those
    /// are moved under [`layout::QUARANTINE_PREFIX`] (a corrupt intent
    /// cannot be replayed, and must not block recovery forever).
    pub fn pending(&self) -> Result<(Vec<(u64, Intent)>, Vec<String>)> {
        let keys: Vec<String> = self
            .oss
            .list(layout::JOURNAL_PREFIX)
            .into_iter()
            .filter(|k| layout::parse_journal_seq(k).is_some())
            .collect();
        if keys.is_empty() {
            return Ok((Vec::new(), Vec::new()));
        }
        let mut intents = Vec::new();
        let mut corrupt = Vec::new();
        for (key, buf) in keys.iter().zip(self.oss.get_many(&keys)) {
            let seq = layout::parse_journal_seq(key).expect("filtered above");
            match buf {
                Ok(buf) => match Intent::decode(&buf) {
                    Ok(intent) => intents.push((seq, intent)),
                    Err(SlimError::Corrupt { .. }) => {
                        self.oss.put(&layout::quarantine_key(key), buf)?;
                        self.oss.delete(key)?;
                        corrupt.push(key.clone());
                    }
                    Err(e) => return Err(e),
                },
                Err(SlimError::ObjectNotFound(_)) => {} // retired concurrently
                Err(e) => return Err(e),
            }
        }
        intents.sort_by_key(|(seq, _)| *seq);
        Ok((intents, corrupt))
    }

    /// Number of outstanding journal records (diagnostics).
    pub fn len(&self) -> usize {
        self.oss.list(layout::JOURNAL_PREFIX).len()
    }

    /// Whether the journal has no outstanding records.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use slim_oss::Oss;

    fn fp(b: u8) -> Fingerprint {
        Fingerprint::from_slice(&[b; 20]).unwrap()
    }

    fn sample_intents() -> Vec<Intent> {
        vec![
            Intent::RewriteContainer {
                old: ContainerId(3),
                new: ContainerId(9),
            },
            Intent::DropContainers {
                ids: vec![ContainerId(1), ContainerId(2)],
            },
            Intent::RepointIndex {
                entries: vec![(fp(1), ContainerId(7)), (fp(2), ContainerId(8))],
            },
            Intent::DropObjects {
                keys: vec![
                    "redundancy/replica/containers/000000000001/data".into(),
                    "redundancy/groups/000000000000".into(),
                ],
            },
        ]
    }

    #[test]
    fn intent_codec_roundtrips() {
        for intent in sample_intents() {
            let buf = intent.encode();
            assert_eq!(Intent::decode(&buf).unwrap(), intent);
        }
    }

    #[test]
    fn oversized_list_counts_are_corrupt() {
        // Header (5) + kind (1), then the list count of kinds 2, 3 and 4.
        for intent in &sample_intents()[1..] {
            let mut payload = crc::unseal(&intent.encode(), "test").unwrap().to_vec();
            payload[6..10].copy_from_slice(&u32::MAX.to_le_bytes());
            let tampered = Intent::decode(&crc::seal(&payload));
            assert!(matches!(tampered, Err(SlimError::Corrupt { .. })));
        }
    }

    #[test]
    fn record_pending_retire_lifecycle() {
        let oss: Arc<dyn ObjectStore> = Arc::new(Oss::in_memory());
        let journal = Journal::open(oss.clone());
        assert!(journal.is_empty());
        let mut seqs = Vec::new();
        for intent in sample_intents() {
            seqs.push(journal.record(&intent).unwrap());
        }
        let (pending, corrupt) = journal.pending().unwrap();
        assert!(corrupt.is_empty());
        assert_eq!(
            pending.iter().map(|(s, _)| *s).collect::<Vec<_>>(),
            seqs,
            "replay order equals record order"
        );
        assert_eq!(
            pending.iter().map(|(_, i)| i.clone()).collect::<Vec<_>>(),
            sample_intents()
        );
        for seq in &seqs {
            journal.retire(*seq).unwrap();
        }
        assert!(journal.is_empty());
        journal.retire(seqs[0]).unwrap(); // idempotent
    }

    #[test]
    fn sequence_allocator_survives_reopen() {
        let oss: Arc<dyn ObjectStore> = Arc::new(Oss::in_memory());
        let journal = Journal::open(oss.clone());
        let a = journal
            .record(&Intent::DropContainers { ids: vec![] })
            .unwrap();
        let reopened = Journal::open(oss);
        let b = reopened
            .record(&Intent::DropContainers { ids: vec![] })
            .unwrap();
        assert!(b > a, "reopened journal must not reuse sequence {a}");
    }

    #[test]
    fn corrupt_record_is_quarantined_not_replayed() {
        let oss: Arc<dyn ObjectStore> = Arc::new(Oss::in_memory());
        let journal = Journal::open(oss.clone());
        let good = journal
            .record(&Intent::RewriteContainer {
                old: ContainerId(1),
                new: ContainerId(2),
            })
            .unwrap();
        let bad = journal
            .record(&Intent::DropContainers {
                ids: vec![ContainerId(5)],
            })
            .unwrap();
        let key = layout::journal_intent(bad);
        let mut buf = oss.get(&key).unwrap().to_vec();
        buf[6] ^= 0x04;
        oss.put(&key, bytes::Bytes::from(buf)).unwrap();
        let (pending, corrupt) = journal.pending().unwrap();
        assert_eq!(pending.len(), 1);
        assert_eq!(pending[0].0, good);
        assert_eq!(corrupt, vec![key.clone()]);
        assert!(oss.exists(&layout::quarantine_key(&key)).unwrap());
        assert!(!oss.exists(&key).unwrap());
        // A second pass sees a clean journal minus the quarantined record.
        let (pending, corrupt) = journal.pending().unwrap();
        assert_eq!(pending.len(), 1);
        assert!(corrupt.is_empty());
    }
}
