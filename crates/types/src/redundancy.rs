//! Parity-group framing for the redundancy plane.
//!
//! Deduplication concentrates risk: after reverse dedup one container can
//! hold the only copy of chunks referenced by many backup versions, so a
//! single corrupt object becomes loss for every version that points at it.
//! The redundancy plane re-introduces *controlled* redundancy: container
//! objects are protected either by a full replica (containers many
//! retained versions name) or by membership in an XOR parity group of `k` containers
//! (everything else), trading one parity block of max-member size for
//! single-fault reconstruction of any member.
//!
//! A [`ParityGroup`] manifest records the member keys and their exact
//! sealed lengths. Members are XOR-ed as their *sealed* on-OSS bytes
//! (payload plus CRC trailer), zero-padded to the longest member; a
//! reconstructed member is therefore self-verifying — its CRC trailer must
//! check out before it is trusted. The manifest and the parity block are
//! themselves CRC-sealed with the same [`crate::crc`] framing as every
//! other maintenance-written object.

use bytes::Bytes;

use crate::codec::{Reader, Writer};
use crate::crc;
use crate::error::Result;

/// Magic of the parity-group manifest encoding.
pub const GROUP_MAGIC: &[u8; 4] = b"SLRG";
/// Format version of the parity-group manifest encoding.
pub const GROUP_VERSION: u8 = 1;

/// One protected member of a parity group.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GroupMember {
    /// Primary OSS key of the member (e.g. `containers/…/data`).
    pub key: String,
    /// Exact sealed object length at seal time; reconstruction truncates
    /// the XOR result back to this length.
    pub len: u64,
}

/// A CRC-sealed manifest describing one XOR parity group.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParityGroup {
    /// Group id; names the manifest and parity-block keys.
    pub id: u64,
    /// Members, in the order they were XOR-ed.
    pub members: Vec<GroupMember>,
}

impl ParityGroup {
    /// Encode and CRC-seal the manifest.
    pub fn encode(&self) -> Bytes {
        let mut w = Writer::with_header(GROUP_MAGIC, GROUP_VERSION);
        w.u64(self.id);
        w.u32(self.members.len() as u32);
        for m in &self.members {
            w.string(&m.key);
            w.u64(m.len);
        }
        crc::seal(&w.freeze())
    }

    /// Unseal and decode a manifest.
    pub fn decode(buf: &Bytes) -> Result<ParityGroup> {
        let payload = crc::unseal(buf, "parity group manifest")?;
        let mut r = Reader::new(&payload, "parity group manifest");
        r.expect_header(GROUP_MAGIC, GROUP_VERSION)?;
        let id = r.u64()?;
        let count = r.count(4 + 8)?;
        let mut members = Vec::with_capacity(count);
        for _ in 0..count {
            let key = r.string()?;
            let len = r.u64()?;
            members.push(GroupMember { key, len });
        }
        r.finish()?;
        Ok(ParityGroup { id, members })
    }

    /// Length of the parity block: the longest member, zero-padded.
    pub fn parity_len(&self) -> usize {
        self.members
            .iter()
            .map(|m| m.len as usize)
            .max()
            .unwrap_or(0)
    }

    /// The member protecting `key`, if any.
    pub fn member(&self, key: &str) -> Option<&GroupMember> {
        self.members.iter().find(|m| m.key == key)
    }
}

/// XOR `src` into `acc`, growing `acc` with zero padding as needed.
pub fn xor_into(acc: &mut Vec<u8>, src: &[u8]) {
    if acc.len() < src.len() {
        acc.resize(src.len(), 0);
    }
    for (a, b) in acc.iter_mut().zip(src) {
        *a ^= b;
    }
}

/// XOR parity block of a set of member objects.
pub fn parity_of<'a>(parts: impl IntoIterator<Item = &'a [u8]>) -> Vec<u8> {
    let mut acc = Vec::new();
    for p in parts {
        xor_into(&mut acc, p);
    }
    acc
}

/// Reconstruct one missing member of `len` bytes from the parity block and
/// every *other* member.
pub fn reconstruct_member<'a>(
    parity: &[u8],
    others: impl IntoIterator<Item = &'a [u8]>,
    len: usize,
) -> Vec<u8> {
    let mut acc = parity.to_vec();
    for p in others {
        xor_into(&mut acc, p);
    }
    acc.truncate(len);
    acc
}

#[cfg(test)]
mod tests {
    use super::*;

    fn group() -> ParityGroup {
        ParityGroup {
            id: 7,
            members: vec![
                GroupMember {
                    key: "containers/000000000001/data".into(),
                    len: 10,
                },
                GroupMember {
                    key: "containers/000000000002/data".into(),
                    len: 4,
                },
                GroupMember {
                    key: "containers/000000000005/data".into(),
                    len: 7,
                },
            ],
        }
    }

    #[test]
    fn manifest_roundtrips() {
        let g = group();
        let buf = g.encode();
        let back = ParityGroup::decode(&buf).unwrap();
        assert_eq!(back, g);
        assert_eq!(back.parity_len(), 10);
        assert!(back.member("containers/000000000002/data").is_some());
        assert!(back.member("containers/000000000009/data").is_none());
    }

    #[test]
    fn manifest_corruption_detected() {
        let buf = group().encode();
        for i in 0..buf.len() {
            let mut bad = buf.to_vec();
            bad[i] ^= 0x40;
            assert!(
                ParityGroup::decode(&Bytes::from(bad)).is_err(),
                "flip at {i} must be detected"
            );
        }
    }

    #[test]
    fn any_single_member_reconstructs() {
        let members: Vec<Vec<u8>> = vec![
            b"aaaaaaaaaa".to_vec(),
            b"bbbb".to_vec(),
            b"ccccccc".to_vec(),
        ];
        let parity = parity_of(members.iter().map(|m| m.as_slice()));
        assert_eq!(parity.len(), 10);
        for lost in 0..members.len() {
            let others = members
                .iter()
                .enumerate()
                .filter(|(i, _)| *i != lost)
                .map(|(_, m)| m.as_slice());
            let back = reconstruct_member(&parity, others, members[lost].len());
            assert_eq!(back, members[lost], "member {lost}");
        }
    }

    #[test]
    fn singleton_group_parity_is_a_copy() {
        let only = b"solo member".to_vec();
        let parity = parity_of([only.as_slice()]);
        assert_eq!(parity, only);
        let back = reconstruct_member(&parity, [], only.len());
        assert_eq!(back, only);
    }
}
