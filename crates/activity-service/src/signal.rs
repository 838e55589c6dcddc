//! Signals: the framework's demarcation and coordination events.
//!
//! Mirrors the paper's IDL:
//!
//! ```idl
//! struct Signal {
//!     string signal_name;
//!     string signal_set_name;
//!     any    application_specific_data;
//! };
//! ```
//!
//! The CORBA `any` is rendered as [`orb::Value`]. On the wire (what a
//! [`crate::RemoteActionProxy`] sends) a signal is the positional list
//! `[name, set, data, delivery]`, `delivery` being the id or `Null`:
//! positions rather than map keys spare four key strings and the map nodes
//! on both ends of every delivery.

use std::fmt;

use orb::Value;

use crate::error::ActivityError;

/// A coordination event sent by a SignalSet to registered Actions.
///
/// "The information encoded within a Signal will depend upon the
/// implementation of the extended transaction model" — hence the open
/// [`Value`] payload.
#[derive(Debug, Clone, PartialEq)]
pub struct Signal {
    name: String,
    signal_set_name: String,
    data: Value,
    delivery_id: Option<String>,
}

impl Signal {
    /// A signal with no payload.
    pub fn new(name: impl Into<String>, signal_set_name: impl Into<String>) -> Self {
        Signal {
            name: name.into(),
            signal_set_name: signal_set_name.into(),
            data: Value::Null,
            delivery_id: None,
        }
    }

    /// Builder-style: attach application-specific data.
    #[must_use]
    pub fn with_data(mut self, data: Value) -> Self {
        self.data = data;
        self
    }

    /// Builder-style: attach a delivery id. Coordinators stamp one
    /// automatically before transmitting, so that *redelivery* of the same
    /// logical signal (at-least-once semantics, §3.4) is recognisable —
    /// the hook [`crate::exactly_once::ExactlyOnceAction`] builds on.
    #[must_use]
    pub fn with_delivery_id(mut self, delivery_id: impl Into<String>) -> Self {
        self.delivery_id = Some(delivery_id.into());
        self
    }

    /// The delivery id, if one was stamped.
    pub fn delivery_id(&self) -> Option<&str> {
        self.delivery_id.as_deref()
    }

    /// The signal's name (e.g. `"prepare"`, `"outcome"`).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The name of the signal set that produced it.
    pub fn signal_set_name(&self) -> &str {
        &self.signal_set_name
    }

    /// The application-specific payload.
    pub fn data(&self) -> &Value {
        &self.data
    }

    /// Serialise for transport, in the wire form of the module docs.
    pub fn to_value(&self) -> Value {
        let delivery = self.delivery_id.clone().map_or(Value::Null, Value::Str);
        let (name, set) = (self.name.clone(), self.signal_set_name.clone());
        Value::List(vec![Value::Str(name), Value::Str(set), self.data.clone(), delivery])
    }

    /// Inverse of [`Signal::to_value`].
    ///
    /// # Errors
    ///
    /// Returns [`ActivityError::Context`] on malformed input.
    pub fn from_value(value: &Value) -> Result<Self, ActivityError> {
        let malformed = || ActivityError::Context(format!("malformed signal: {value}"));
        let Some([Value::Str(name), Value::Str(set), data, delivery]) = value.as_list() else {
            return Err(malformed());
        };
        let delivery_id = match delivery {
            Value::Null => None,
            Value::Str(id) => Some(id.clone()),
            _ => return Err(malformed()),
        };
        let (name, signal_set_name, data) = (name.clone(), set.clone(), data.clone());
        Ok(Signal { name, signal_set_name, data, delivery_id })
    }
}

impl fmt::Display for Signal {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}@{}", self.name, self.signal_set_name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accessors_and_builder() {
        let s = Signal::new("prepare", "2pc").with_data(Value::from(5i64));
        assert_eq!(s.name(), "prepare");
        assert_eq!(s.signal_set_name(), "2pc");
        assert_eq!(s.data().as_i64(), Some(5));
    }

    #[test]
    fn value_roundtrip() {
        let plain = Signal::new("outcome", "Completed").with_data(Value::from("done"));
        let stamped = plain.clone().with_delivery_id("act-1:Completed:1");
        for s in [plain, stamped] {
            let v = s.to_value();
            let back = Signal::from_value(&v).unwrap();
            assert_eq!(back, s);
            // Through the binary codec too.
            let decoded = Value::decode(&v.encode()).unwrap();
            assert_eq!(Signal::from_value(&decoded).unwrap(), s);
        }
    }

    #[test]
    fn wire_form_is_positional() {
        let s = Signal::new("prepare", "2pc").with_data(Value::from(5i64)).with_delivery_id("d-1");
        assert_eq!(
            s.to_value(),
            Value::List(vec![
                Value::from("prepare"),
                Value::from("2pc"),
                Value::from(5i64),
                Value::from("d-1"),
            ])
        );
        assert_eq!(Signal::new("a", "b").to_value().as_list().map(<[Value]>::len), Some(4));
    }

    #[test]
    fn from_value_rejects_malformed() {
        assert!(Signal::from_value(&Value::Null).is_err());
        let short = Value::List(vec![Value::from("x"), Value::from("set"), Value::Null]);
        assert!(Signal::from_value(&short).is_err(), "missing delivery slot");
        let unnamed = Value::List(vec![Value::Null, Value::from("set"), Value::Null, Value::Null]);
        assert!(Signal::from_value(&unnamed).is_err(), "name must be a string");
        let bad_id = Value::List(vec![
            Value::from("x"),
            Value::from("set"),
            Value::Null,
            Value::from(1i64),
        ]);
        assert!(Signal::from_value(&bad_id).is_err(), "delivery must be a string or null");
    }

    #[test]
    fn display_includes_both_names() {
        let s = Signal::new("confirm", "Complete");
        let printed = s.to_string();
        assert!(printed.contains("confirm"));
        assert!(printed.contains("Complete"));
    }
}
