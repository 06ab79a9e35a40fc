//! Per-process object registry.

use crate::servant::Servant;
use causeway_core::ids::{InterfaceId, ObjectId, ProcessId};
use causeway_core::names::ComponentId;
use causeway_core::sync::RwLock;
use std::collections::HashMap;
use std::sync::Arc;

/// Everything the skeleton needs to dispatch to one registered object.
#[derive(Clone)]
pub struct ObjectRecord {
    /// The implementation.
    pub servant: Arc<dyn Servant>,
    /// The interface the object implements.
    pub interface: InterfaceId,
    /// The owning component.
    pub component: ComponentId,
    /// `true` when the object uses custom marshalling (marshal-by-value):
    /// remote invocations execute in the *client's* thread context.
    pub custom_marshal: bool,
}

impl std::fmt::Debug for ObjectRecord {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ObjectRecord")
            .field("interface", &self.interface)
            .field("component", &self.component)
            .field("custom_marshal", &self.custom_marshal)
            .finish()
    }
}

/// A process's object table. Cloning shares state.
#[derive(Debug, Clone, Default)]
pub struct ObjectRegistry {
    inner: Arc<RwLock<HashMap<ObjectId, ObjectRecord>>>,
}

impl ObjectRegistry {
    /// Creates an empty registry.
    pub fn new() -> ObjectRegistry {
        ObjectRegistry::default()
    }

    /// Registers an object.
    pub fn insert(&self, object: ObjectId, record: ObjectRecord) {
        self.inner.write().insert(object, record);
    }

    /// Looks up an object.
    pub fn lookup(&self, object: ObjectId) -> Option<ObjectRecord> {
        self.inner.read().get(&object).cloned()
    }

    /// Number of registered objects.
    pub fn len(&self) -> usize {
        self.inner.read().len()
    }

    /// `true` when no objects are registered.
    pub fn is_empty(&self) -> bool {
        self.inner.read().is_empty()
    }
}

/// All processes' registries — one address space hosts every simulated
/// process, which is what makes custom marshalling (executing a remote
/// object's implementation in the client's thread) expressible.
#[derive(Debug, Clone, Default)]
pub struct SharedRegistries {
    inner: Arc<RwLock<HashMap<ProcessId, ObjectRegistry>>>,
}

impl SharedRegistries {
    /// Creates an empty set.
    pub fn new() -> SharedRegistries {
        SharedRegistries::default()
    }

    /// Registers a process's registry.
    pub fn insert(&self, process: ProcessId, registry: ObjectRegistry) {
        self.inner.write().insert(process, registry);
    }

    /// The registry of a process.
    pub fn of(&self, process: ProcessId) -> Option<ObjectRegistry> {
        self.inner.read().get(&process).cloned()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::servant::{FnServant, MethodResult};
    use causeway_core::value::Value;

    fn dummy() -> Arc<dyn Servant> {
        Arc::new(FnServant::new(|_, _, _| -> MethodResult { Ok(Value::Void) }))
    }

    #[test]
    fn insert_and_lookup() {
        let reg = ObjectRegistry::new();
        assert!(reg.is_empty());
        reg.insert(
            ObjectId(1),
            ObjectRecord {
                servant: dummy(),
                interface: InterfaceId(0),
                component: ComponentId(0),
                custom_marshal: false,
            },
        );
        assert_eq!(reg.len(), 1);
        assert!(reg.lookup(ObjectId(1)).is_some());
        assert!(reg.lookup(ObjectId(2)).is_none());
    }

    #[test]
    fn shared_registries_resolve_by_process() {
        let shared = SharedRegistries::new();
        let reg = ObjectRegistry::new();
        shared.insert(ProcessId(3), reg.clone());
        assert!(shared.of(ProcessId(3)).is_some());
        assert!(shared.of(ProcessId(4)).is_none());
        // Clones observe the same map.
        let shared2 = shared.clone();
        shared2.insert(ProcessId(4), ObjectRegistry::new());
        assert!(shared.of(ProcessId(4)).is_some());
    }
}
