//! Settings read on every call and changed rarely, published as one
//! immutable snapshot.

use std::sync::Arc;

use parking_lot::RwLock;

/// Holds the current snapshot of a `T`. A reader takes it with one read
/// lock and one `Arc` bump and keeps it for the whole operation, so it
/// never sees a half-applied change; a writer publishes an edited copy,
/// and work already under way keeps the snapshot it read.
#[derive(Default)]
pub struct SnapshotCell<T> {
    current: RwLock<Arc<T>>,
}

impl<T: Clone> SnapshotCell<T> {
    /// A cell whose first snapshot is `value`.
    pub fn new(value: T) -> Self {
        SnapshotCell { current: RwLock::new(Arc::new(value)) }
    }

    /// The current snapshot.
    pub fn load(&self) -> Arc<T> {
        Arc::clone(&self.current.read())
    }

    /// Publish a copy of the current snapshot edited by `change`.
    pub fn update(&self, change: impl FnOnce(&mut T)) {
        let mut current = self.current.write();
        let mut next = T::clone(&current);
        change(&mut next);
        *current = Arc::new(next);
    }
}

impl<T> From<Arc<T>> for SnapshotCell<T> {
    /// A cell whose first snapshot is `value`, shared with its other owners.
    fn from(value: Arc<T>) -> Self {
        SnapshotCell { current: RwLock::new(value) }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn readers_keep_the_snapshot_they_loaded() {
        let cell = SnapshotCell::new(vec![1]);
        let before = cell.load();
        cell.update(|v| v.push(2));
        assert_eq!(*before, [1], "an earlier reader is unaffected");
        assert_eq!(*cell.load(), [1, 2]);
    }
}
