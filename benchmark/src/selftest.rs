//! Set-up self-tests of the third-party stand-ins under `vendor/`.
//!
//! The measured crates run against stand-ins, not the published crates; a
//! stand-in that drifted from the behaviour the code relies on would make
//! every number meaningless, so each run re-checks the load-bearing parts
//! before timing anything.

use bytes::{Buf, BufMut, Bytes, BytesMut};
use sha1::{Digest, Sha1};
use slim_types::SlimError;

fn check(ok: bool, what: &str) -> Result<(), String> {
    if ok {
        Ok(())
    } else {
        Err(format!("stand-in self-test failed: {what}"))
    }
}

fn sha1_vectors() -> Result<(), String> {
    let cases: [(&[u8], &str); 3] = [
        (b"", "da39a3ee5e6b4b0d3255bfef95601890afd80709"),
        (b"abc", "a9993e364706816aba3e25717850c26c9cd0d89d"),
        (
            b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
            "84983e441c3bd26ebaae4aa1f95129e5e54670f1",
        ),
    ];
    for (input, want) in cases {
        check(
            format!("{:x}", Sha1::digest(input)) == want,
            "sha1 FIPS vector",
        )?;
    }
    // The path the chunker uses: digest → 20-byte fingerprint.
    let fp = slim_chunking::fingerprint(b"abc");
    check(
        fp.to_hex() == cases[1].1,
        "slim_chunking::fingerprint over the sha1 stand-in",
    )?;
    let mut streamed = Sha1::new();
    streamed.update(b"ab");
    streamed.update(b"c");
    check(
        streamed.finalize() == Sha1::digest(b"abc"),
        "sha1 streaming equals one-shot",
    )
}

fn bytes_semantics() -> Result<(), String> {
    let whole = Bytes::from((0u8..32).collect::<Vec<u8>>());
    let mid = whole.slice(8..24);
    check(mid.len() == 16 && mid[0] == 8, "Bytes::slice window")?;
    check(
        mid.slice(4..).as_ptr() == whole[12..].as_ptr(),
        "Bytes::slice shares the allocation",
    )?;
    let mut cursor: &[u8] = &whole[..];
    check(
        cursor.get_u8() == 0 && cursor.get_u32_le() == 0x0403_0201,
        "Buf little-endian reads",
    )?;
    check(cursor.remaining() == 27, "Buf::remaining after reads")?;
    let mut four = [0u8; 4];
    cursor.copy_to_slice(&mut four);
    check(
        four == [5, 6, 7, 8] && cursor.remaining() == 23,
        "Buf::copy_to_slice advances",
    )?;
    let mut w = BytesMut::with_capacity(8);
    w.put_slice(b"ab");
    w.put_u64_le(0x0102_0304_0506_0708);
    w.put_f64_le(1.5);
    let frozen = w.freeze();
    check(
        frozen.len() == 18 && frozen[2] == 8 && &frozen[..2] == b"ab",
        "BufMut writes and freeze",
    )?;
    check(
        Bytes::from_static(b"xy") == b"xy".to_vec(),
        "Bytes equality by content",
    )
}

fn channel_semantics() -> Result<(), String> {
    use crossbeam::channel::bounded;
    let (tx, rx) = bounded::<u32>(2);
    tx.send(1).map_err(|e| e.to_string())?;
    tx.send(2).map_err(|e| e.to_string())?;
    check(
        tx.try_send(3).is_err(),
        "bounded channel refuses beyond capacity",
    )?;
    drop(tx);
    check(
        rx.recv() == Ok(1) && rx.recv() == Ok(2),
        "queued messages survive the sender",
    )?;
    check(
        rx.recv().is_err(),
        "recv errors once empty and disconnected",
    )?;
    let (tx, rx) = bounded::<u32>(1);
    drop(rx);
    check(tx.send(1).is_err(), "send errors once receivers are gone")?;

    let (tx, rx) = bounded::<u64>(4);
    let total: u64 = std::thread::scope(|s| {
        for p in 0..2u64 {
            let tx = tx.clone();
            s.spawn(move || (0..100).for_each(|i| tx.send(p * 1000 + i).expect("receivers alive")));
        }
        drop(tx);
        let consumers: Vec<_> = (0..2)
            .map(|_| {
                let rx = rx.clone();
                s.spawn(move || rx.iter().sum::<u64>())
            })
            .collect();
        consumers
            .into_iter()
            .map(|c| c.join().expect("consumer does not panic"))
            .sum()
    });
    check(
        total == 2 * 4950 + 100 * 1000,
        "MPMC delivers every message exactly once",
    )?;

    let q = crossbeam::queue::SegQueue::new();
    q.push(1);
    q.push(2);
    check(
        q.pop() == Some(1) && q.pop() == Some(2) && q.pop().is_none(),
        "SegQueue is FIFO",
    )
}

fn error_display() -> Result<(), String> {
    let cases = [
        (
            SlimError::ObjectNotFound("k".into()).to_string(),
            "object not found: k",
        ),
        (
            SlimError::RangeOutOfBounds {
                key: "k".into(),
                start: 1,
                end: 9,
                len: 4,
            }
            .to_string(),
            "range 1..9 out of bounds for object k of 4 bytes",
        ),
        (
            SlimError::corrupt("recipe", "bad magic").to_string(),
            "corrupt recipe: bad magic",
        ),
        (
            SlimError::ContainerMissing(7).to_string(),
            "container 7 missing",
        ),
        (
            SlimError::Timeout {
                op: "put k".into(),
                attempts: 3,
                last: "x".into(),
            }
            .to_string(),
            "put k timed out after 3 attempts: x",
        ),
    ];
    for (got, want) in cases {
        check(
            got == want,
            &format!("thiserror Display: {got:?} != {want:?}"),
        )?;
    }
    let io: SlimError = std::io::Error::other("disk").into();
    check(
        io.to_string() == "io error: disk",
        "thiserror #[from] and Display",
    )?;
    check(
        std::error::Error::source(&io).is_some(),
        "thiserror #[from] sets source()",
    )
}

/// Run every self-test; the first failure is returned.
pub fn run() -> Result<(), String> {
    sha1_vectors()?;
    bytes_semantics()?;
    channel_semantics()?;
    error_display()
}
