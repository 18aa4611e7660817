//! A bounded, ordered fan-out for the G-node's own I/O.
//!
//! The redundancy plane's detection reads (`object_state`: a raw GET plus a
//! CRC check) and protection PUTs are independent per object, and on a store
//! where every request costs a round trip a loop that issues them one at a
//! time leaves all but one connection idle. [`fan_out`] runs a job per item
//! on a few scoped threads and hands the results to the caller **in input
//! order**, so anything derived from them — parity-group composition, group
//! ids, statistics — is a function of the item order, never of which request
//! happened to answer first.
//!
//! Not `ObjectStore::get_many`: on container keys that batch goes through
//! the healing wrapper, which would mask the damage a detection read exists
//! to find and checksum every object a second time.

use std::collections::BTreeMap;
use std::sync::mpsc;

use parking_lot::{Condvar, Mutex};
use slim_types::{Deadline, Result};

/// Items in flight per [`fan_out`] call at full width. With 4 MiB containers
/// that is about two default parity groups' worth of bytes.
pub(crate) const WIDTH: usize = 8;

/// Which items may start: item `i` waits until `i < consumed + width`, so a
/// slow head of the line cannot let the rest of the list pile up in memory.
struct Window {
    next: usize,
    consumed: usize,
    closed: bool,
}

/// Run `job` over `items` on up to `width` scoped threads and pass each
/// result to `consume` on the calling thread, in input order. At most
/// `width` items are started and not yet consumed, which bounds the bytes
/// the results hold. The first `Err` from `consume` ends the pass: no
/// further item starts, jobs already running finish (their effects must be
/// idempotent, like every write of the plane) and their results are dropped.
///
/// The ambient [`Deadline`] is re-installed in the workers: scoped threads
/// do not inherit thread-locals.
pub(crate) fn fan_out<I, T>(
    items: &[I],
    width: usize,
    job: impl Fn(&I) -> T + Sync,
    mut consume: impl FnMut(&I, T) -> Result<()>,
) -> Result<()>
where
    I: Sync,
    T: Send,
{
    let width = width.min(items.len());
    if width <= 1 {
        return items.iter().try_for_each(|item| consume(item, job(item)));
    }
    let deadline = Deadline::current();
    let window = Mutex::new(Window {
        next: 0,
        consumed: 0,
        closed: false,
    });
    let moved = Condvar::new();
    let (tx, rx) = mpsc::channel::<(usize, T)>();
    std::thread::scope(|scope| {
        for _ in 0..width {
            let tx = tx.clone();
            let (window, moved, job) = (&window, &moved, &job);
            scope.spawn(move || {
                let _deadline = deadline.install();
                loop {
                    let at = {
                        let mut w = window.lock();
                        while !w.closed && w.next < items.len() && w.next >= w.consumed + width {
                            moved.wait(&mut w);
                        }
                        if w.closed || w.next == items.len() {
                            return;
                        }
                        w.next += 1;
                        w.next - 1
                    };
                    if tx.send((at, job(&items[at]))).is_err() {
                        return;
                    }
                }
            });
        }
        drop(tx);
        let mut early: BTreeMap<usize, T> = BTreeMap::new();
        let outcome = items.iter().enumerate().try_for_each(|(at, item)| {
            let result = loop {
                if let Some(result) = early.remove(&at) {
                    break result;
                }
                let (done, result) = rx
                    .recv()
                    .expect("a worker holds the sender until the last item");
                early.insert(done, result);
            };
            consume(item, result)?;
            window.lock().consumed += 1;
            moved.notify_all();
            Ok(())
        });
        window.lock().closed = true;
        moved.notify_all();
        outcome
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use slim_types::SlimError;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::time::Duration;

    #[test]
    fn results_arrive_in_input_order_whatever_finishes_first() {
        let items: Vec<u64> = (0..40).collect();
        for width in [0, 1, 3, WIDTH, 64] {
            let mut seen = Vec::new();
            fan_out(
                &items,
                width,
                |&i| {
                    // Earlier items take longer.
                    std::thread::sleep(Duration::from_micros(40 - i));
                    i * 2
                },
                |&i, doubled| {
                    assert_eq!(doubled, i * 2);
                    seen.push(i);
                    Ok(())
                },
            )
            .unwrap();
            assert_eq!(seen, items, "width {width}");
        }
    }

    #[test]
    fn at_most_width_items_are_started_and_unconsumed() {
        let items: Vec<usize> = (0..50).collect();
        let started = AtomicUsize::new(0);
        let mut consumed = 0usize;
        fan_out(
            &items,
            4,
            |&i| {
                started.fetch_add(1, Ordering::SeqCst);
                if i == 0 {
                    // The head of the line holds until the window is full,
                    // then a little longer: time for the rest to run away,
                    // if anything let them.
                    while started.load(Ordering::SeqCst) < 4 {
                        std::thread::yield_now();
                    }
                    std::thread::sleep(Duration::from_millis(10));
                }
            },
            |_, ()| {
                let ahead = started.load(Ordering::SeqCst) - consumed;
                assert!(ahead <= 4, "{ahead} items in flight");
                consumed += 1;
                Ok(())
            },
        )
        .unwrap();
        assert_eq!(consumed, 50);
    }

    #[test]
    fn first_error_ends_the_pass_and_the_workers_drain() {
        let items: Vec<usize> = (0..200).collect();
        let started = AtomicUsize::new(0);
        let err = fan_out(
            &items,
            4,
            |&i| {
                started.fetch_add(1, Ordering::SeqCst);
                i
            },
            |_, i| match i {
                5 => Err(SlimError::Transient("injected".into())),
                _ => Ok(()),
            },
        )
        .unwrap_err();
        assert!(matches!(err, SlimError::Transient(_)));
        // Items 0..=5 were consumed; at most a window more had started.
        assert!(started.load(Ordering::SeqCst) <= 5 + 4 + 1);
    }

    #[test]
    fn workers_see_the_callers_deadline() {
        let items = [(), (), ()];
        Deadline::within(Duration::from_secs(3600)).scope(|| {
            fan_out(
                &items,
                3,
                |()| Deadline::current().is_bounded(),
                |(), bounded| {
                    assert!(bounded);
                    Ok(())
                },
            )
            .unwrap()
        });
    }
}
