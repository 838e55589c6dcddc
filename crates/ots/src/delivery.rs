//! The delivery context: which log, if any, the coordinator delivering a
//! protocol message on this thread forces its commit decision on.
//!
//! A participant that appends to that same log need not force its own
//! records (the shared-log optimisation of the 2PC literature). Every
//! [`Wal`] makes a prefix of its LSNs durable, and the coordinator orders
//! the writes so that the participant's records precede the records that
//! depend on them: prepared records are appended before the forced decision
//! record, outcome records before the completion record. Recovery therefore
//! finds either a durable decision to re-deliver or none, which it presumes
//! to be an abort.
//!
//! The context is scoped to one delivery on one thread and keyed by the
//! transaction as well as the log. A thread blocked inside a delivery may
//! help run unrelated queued pool jobs; those see a different transaction,
//! so they keep forcing. Anything outside a delivery — another thread, an
//! ORB hop, recovery re-delivery, one-phase commit, a coordinator without a
//! log — sees no matching context and forces as before.

use std::cell::RefCell;
use std::sync::Arc;

use recovery_log::Wal;

use crate::xid::TxId;

thread_local! {
    static CURRENT: RefCell<Option<(usize, TxId)>> = const { RefCell::new(None) };
}

/// A log's identity: the data pointer of its `Arc`. Comparing it is sound
/// while the coordinator holds the `Arc`, which outlives every delivery.
fn identity(wal: &Arc<dyn Wal>) -> usize {
    Arc::as_ptr(wal).cast::<()>() as usize
}

/// The context one coordinator installs around each of its deliveries.
#[derive(Clone)]
pub(crate) struct Delivery(Option<(usize, TxId)>);

impl Delivery {
    /// Deliveries of `tx` by a coordinator that forces its decision on
    /// `decision_log` (none: participants keep forcing).
    pub(crate) fn new(decision_log: Option<&Arc<dyn Wal>>, tx: &TxId) -> Self {
        Delivery(decision_log.map(|wal| (identity(wal), tx.clone())))
    }

    /// Run one delivery under this context, restoring the enclosing one on
    /// exit, including on unwind.
    pub(crate) fn run<T>(&self, deliver: impl FnOnce() -> T) -> T {
        struct Restore(Option<(usize, TxId)>);
        impl Drop for Restore {
            fn drop(&mut self) {
                CURRENT.with(|current| *current.borrow_mut() = self.0.take());
            }
        }
        let _restore = Restore(CURRENT.with(|current| current.replace(self.0.clone())));
        deliver()
    }
}

/// Whether a record about `tx` appended to `wal` rides the decision force
/// of the coordinator currently delivering on this thread.
pub(crate) fn rides_decision(wal: &Arc<dyn Wal>, tx: &TxId) -> bool {
    CURRENT.with(|current| {
        matches!(&*current.borrow(), Some((log, delivering)) if *log == identity(wal) && delivering == tx)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use recovery_log::MemWal;

    #[test]
    fn context_is_scoped_and_restored_on_unwind() {
        let wal: Arc<dyn Wal> = Arc::new(MemWal::new());
        let other: Arc<dyn Wal> = Arc::new(MemWal::new());
        let tx = TxId::top_level(1);
        assert!(!rides_decision(&wal, &tx));
        Delivery::new(Some(&wal), &tx).run(|| {
            assert!(rides_decision(&wal, &tx));
            assert!(!rides_decision(&other, &tx), "a foreign log forces");
            assert!(!rides_decision(&wal, &TxId::top_level(2)), "another transaction forces");
            Delivery::new(None, &tx).run(|| {
                assert!(!rides_decision(&wal, &tx), "a coordinator without a log shadows");
            });
            assert!(rides_decision(&wal, &tx), "the enclosing context is restored");
            let unwound = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                Delivery::new(Some(&other), &tx).run(|| panic!("participant panicked"))
            }));
            assert!(unwound.is_err());
            assert!(rides_decision(&wal, &tx), "restored on unwind");
        });
        assert!(!rides_decision(&wal, &tx));
    }
}
