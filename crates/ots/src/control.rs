//! The control object tying a coordinator and terminator together.

use std::sync::Arc;

use crate::coordinator::Coordinator;
use crate::error::TxError;
use crate::terminator::Terminator;
use crate::xid::TxId;

/// A transaction's control (mirrors CosTransactions::Control): access to its
/// [`Coordinator`] for registration and its [`Terminator`] for completion.
#[derive(Debug, Clone)]
pub struct Control {
    coordinator: Arc<Coordinator>,
    terminator: Terminator,
}

impl Control {
    pub(crate) fn new(coordinator: Arc<Coordinator>) -> Self {
        let terminator = Terminator::new(Arc::clone(&coordinator));
        Control { coordinator, terminator }
    }

    /// The coordinator: register resources, create subtransactions, inspect
    /// status.
    pub fn coordinator(&self) -> &Arc<Coordinator> {
        &self.coordinator
    }

    /// The terminator: commit or roll back.
    pub fn terminator(&self) -> &Terminator {
        &self.terminator
    }

    /// The transaction's id (convenience for `coordinator().id()`).
    pub fn id(&self) -> &TxId {
        self.coordinator.id()
    }

    /// Begin a subtransaction, returning its control.
    ///
    /// # Errors
    ///
    /// See [`Coordinator::create_subtransaction`].
    pub fn begin_subtransaction(&self) -> Result<Control, TxError> {
        let child = self.coordinator.create_subtransaction()?;
        Ok(Control::new(child))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::status::TxStatus;
    use recovery_log::FailpointSet;

    #[test]
    fn control_wires_coordinator_and_terminator() {
        let c = Coordinator::new_top_level(
            TxId::top_level(4),
            None,
            FailpointSet::new(),
            None,
            None,
            orb::pool::DispatchConfig::default(),
            Default::default(),
        );
        let control = Control::new(c);
        assert_eq!(control.id(), &TxId::top_level(4));
        let sub = control.begin_subtransaction().unwrap();
        assert_eq!(sub.id(), &TxId::top_level(4).child(0));
        sub.terminator().commit().unwrap();
        control.terminator().commit().unwrap();
        assert_eq!(control.coordinator().status(), TxStatus::Committed);
    }
}
