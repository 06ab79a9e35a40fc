//! Name interning: the system vocabulary.
//!
//! Probe records carry compact integer ids; the vocabulary maps those ids to
//! the human-readable interface, method, component and object names that the
//! analyzer prints ("each node is identified by the interface and function
//! names, along with its unique object identifier"). One [`SystemVocab`] is
//! shared by every process of a simulated system, and a [`VocabSnapshot`]
//! travels with the collected logs into the monitoring database.

use crate::ids::{CpuTypeId, InterfaceId, MethodIndex, ObjectId, ProcessId};
use crate::sync::RwLock;
use std::collections::HashMap;
use std::sync::Arc;
use std::sync::atomic::{AtomicU64, Ordering};

/// Identifies a component (a named unit of deployment that owns objects).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ComponentId(pub u32);

impl std::fmt::Display for ComponentId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "comp{}", self.0)
    }
}

/// Metadata for one registered interface.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InterfaceEntry {
    /// Fully qualified interface name, e.g. `"Example::Foo"`.
    pub name: String,
    /// Method names in declaration order; a [`MethodIndex`] indexes this.
    pub methods: Vec<String>,
}

/// Metadata for one live component object instance.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ObjectEntry {
    /// Human-readable instance label, e.g. `"Rasterizer#2"`.
    pub label: String,
    /// The interface the object implements.
    pub interface: InterfaceId,
    /// The component the object belongs to.
    pub component: ComponentId,
    /// The process hosting the object.
    pub process: ProcessId,
}

#[derive(Debug, Default)]
struct VocabInner {
    interfaces: Vec<InterfaceEntry>,
    interface_index: HashMap<String, InterfaceId>,
    components: Vec<String>,
    component_index: HashMap<String, ComponentId>,
    cpu_types: Vec<String>,
    cpu_type_index: HashMap<String, CpuTypeId>,
    objects: HashMap<ObjectId, ObjectEntry>,
}

/// Shared, thread-safe vocabulary for one simulated system.
///
/// Cloning is cheap (an `Arc` clone); all clones observe the same state.
///
/// # Example
///
/// ```
/// use causeway_core::names::SystemVocab;
/// let vocab = SystemVocab::new();
/// let iface = vocab.intern_interface("Example::Foo", &["funcA", "funcB"]);
/// assert_eq!(vocab.interface_name(iface).as_deref(), Some("Example::Foo"));
/// assert_eq!(
///     vocab.method_name(iface, causeway_core::ids::MethodIndex(1)).as_deref(),
///     Some("funcB")
/// );
/// ```
#[derive(Debug, Clone, Default)]
pub struct SystemVocab {
    inner: Arc<RwLock<VocabInner>>,
    next_object: Arc<AtomicU64>,
}

impl SystemVocab {
    /// Creates an empty vocabulary.
    pub fn new() -> SystemVocab {
        SystemVocab::default()
    }

    /// Interns an interface with its method names, returning its id. If the
    /// name is already interned the existing id is returned (the method list
    /// must then match — see Panics).
    ///
    /// # Panics
    ///
    /// Panics if the interface was previously interned with a different
    /// method list: two runtimes disagreeing on an interface definition is a
    /// deployment bug worth failing loudly on.
    pub fn intern_interface(&self, name: &str, methods: &[&str]) -> InterfaceId {
        let mut inner = self.inner.write();
        if let Some(&id) = inner.interface_index.get(name) {
            let existing = &inner.interfaces[id.0 as usize].methods;
            assert!(
                existing.iter().map(String::as_str).eq(methods.iter().copied()),
                "interface {name} re-interned with a different method list"
            );
            return id;
        }
        let id = InterfaceId(inner.interfaces.len() as u32);
        inner.interfaces.push(InterfaceEntry {
            name: name.to_owned(),
            methods: methods.iter().map(|m| (*m).to_owned()).collect(),
        });
        inner.interface_index.insert(name.to_owned(), id);
        id
    }

    /// Interns a component name, returning its id (idempotent).
    pub fn intern_component(&self, name: &str) -> ComponentId {
        let mut inner = self.inner.write();
        if let Some(&id) = inner.component_index.get(name) {
            return id;
        }
        let id = ComponentId(inner.components.len() as u32);
        inner.components.push(name.to_owned());
        inner.component_index.insert(name.to_owned(), id);
        id
    }

    /// Interns a CPU type name (e.g. `"HPUX"`), returning its id (idempotent).
    pub fn intern_cpu_type(&self, name: &str) -> CpuTypeId {
        let mut inner = self.inner.write();
        if let Some(&id) = inner.cpu_type_index.get(name) {
            return id;
        }
        let id = CpuTypeId(inner.cpu_types.len() as u16);
        inner.cpu_types.push(name.to_owned());
        inner.cpu_type_index.insert(name.to_owned(), id);
        id
    }

    /// Allocates a fresh object id and records its metadata.
    pub fn register_object(
        &self,
        label: &str,
        interface: InterfaceId,
        component: ComponentId,
        process: ProcessId,
    ) -> ObjectId {
        let id = ObjectId(self.next_object.fetch_add(1, Ordering::Relaxed));
        self.inner.write().objects.insert(
            id,
            ObjectEntry {
                label: label.to_owned(),
                interface,
                component,
                process,
            },
        );
        id
    }

    /// Looks up an interface id by name.
    pub fn interface_id(&self, name: &str) -> Option<InterfaceId> {
        self.inner.read().interface_index.get(name).copied()
    }

    /// The name of an interface.
    pub fn interface_name(&self, id: InterfaceId) -> Option<String> {
        self.inner.read().interfaces.get(id.0 as usize).map(|e| e.name.clone())
    }

    /// The name of a method within an interface.
    pub fn method_name(&self, iface: InterfaceId, method: MethodIndex) -> Option<String> {
        self.inner
            .read()
            .interfaces
            .get(iface.0 as usize)
            .and_then(|e| e.methods.get(method.0 as usize))
            .cloned()
    }

    /// Resolves a method name to its declaration index within an interface.
    pub fn method_index(&self, iface: InterfaceId, method: &str) -> Option<MethodIndex> {
        self.inner
            .read()
            .interfaces
            .get(iface.0 as usize)
            .and_then(|e| e.methods.iter().position(|m| m == method))
            .map(|i| MethodIndex(i as u16))
    }

    /// Number of methods declared on an interface.
    pub fn method_count(&self, iface: InterfaceId) -> usize {
        self.inner
            .read()
            .interfaces
            .get(iface.0 as usize)
            .map_or(0, |e| e.methods.len())
    }

    /// Metadata for a registered object.
    pub fn object(&self, id: ObjectId) -> Option<ObjectEntry> {
        self.inner.read().objects.get(&id).cloned()
    }

    /// Freezes the current contents into an owned, serializable snapshot.
    pub fn snapshot(&self) -> VocabSnapshot {
        let inner = self.inner.read();
        VocabSnapshot {
            interfaces: inner.interfaces.clone(),
            components: inner.components.clone(),
            cpu_types: inner.cpu_types.clone(),
            objects: inner.objects.iter().map(|(k, v)| (*k, v.clone())).collect(),
        }
    }
}

/// An immutable, serializable copy of the vocabulary, stored alongside the
/// collected logs so the analyzer can print names off-line.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct VocabSnapshot {
    /// Interned interfaces in id order.
    pub interfaces: Vec<InterfaceEntry>,
    /// Interned component names in id order.
    pub components: Vec<String>,
    /// Interned CPU type names in id order.
    pub cpu_types: Vec<String>,
    /// Object metadata by object id.
    pub objects: Vec<(ObjectId, ObjectEntry)>,
}

impl VocabSnapshot {
    /// The name of an interface, or a placeholder for unknown ids.
    pub fn interface_name(&self, id: InterfaceId) -> &str {
        self.interfaces
            .get(id.0 as usize)
            .map_or("<unknown-interface>", |e| e.name.as_str())
    }

    /// The name of a method, or a placeholder for unknown ids.
    pub fn method_name(&self, iface: InterfaceId, method: MethodIndex) -> &str {
        self.interfaces
            .get(iface.0 as usize)
            .and_then(|e| e.methods.get(method.0 as usize))
            .map_or("<unknown-method>", String::as_str)
    }

    /// The name of a component, or a placeholder.
    pub fn component_name(&self, id: ComponentId) -> &str {
        self.components
            .get(id.0 as usize)
            .map_or("<unknown-component>", String::as_str)
    }

    /// The name of a CPU type, or a placeholder.
    pub fn cpu_type_name(&self, id: CpuTypeId) -> &str {
        self.cpu_types
            .get(id.0 as usize)
            .map_or("<unknown-cpu>", String::as_str)
    }

    /// Metadata for an object, if known.
    pub fn object(&self, id: ObjectId) -> Option<&ObjectEntry> {
        self.objects.iter().find(|(o, _)| *o == id).map(|(_, e)| e)
    }

    /// Human-readable `Interface.method@object-label` for a function key.
    pub fn qualified_function(&self, func: &crate::record::FunctionKey) -> String {
        let iface = self.interface_name(func.interface);
        let method = self.method_name(func.interface, func.method);
        match self.object(func.object) {
            Some(obj) => format!("{iface}.{method}@{}", obj.label),
            None => format!("{iface}.{method}@{}", func.object),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interning_is_idempotent() {
        let v = SystemVocab::new();
        let a = v.intern_interface("Foo", &["x", "y"]);
        let b = v.intern_interface("Foo", &["x", "y"]);
        assert_eq!(a, b);
        assert_eq!(v.intern_component("C"), v.intern_component("C"));
        assert_eq!(v.intern_cpu_type("HPUX"), v.intern_cpu_type("HPUX"));
    }

    #[test]
    #[should_panic(expected = "different method list")]
    fn conflicting_reinterning_panics() {
        let v = SystemVocab::new();
        v.intern_interface("Foo", &["x"]);
        v.intern_interface("Foo", &["y"]);
    }

    #[test]
    fn method_lookup_both_directions() {
        let v = SystemVocab::new();
        let id = v.intern_interface("Printer", &["submit", "status"]);
        assert_eq!(v.method_index(id, "status"), Some(MethodIndex(1)));
        assert_eq!(v.method_name(id, MethodIndex(0)).as_deref(), Some("submit"));
        assert_eq!(v.method_index(id, "missing"), None);
        assert_eq!(v.method_count(id), 2);
    }

    #[test]
    fn object_registration_allocates_unique_ids() {
        let v = SystemVocab::new();
        let iface = v.intern_interface("I", &["m"]);
        let comp = v.intern_component("C");
        let a = v.register_object("a", iface, comp, ProcessId(0));
        let b = v.register_object("b", iface, comp, ProcessId(1));
        assert_ne!(a, b);
        assert_eq!(v.object(a).unwrap().label, "a");
        assert_eq!(v.object(b).unwrap().process, ProcessId(1));
    }

    #[test]
    fn snapshot_resolves_names() {
        let v = SystemVocab::new();
        let iface = v.intern_interface("Example::Foo", &["funcA", "funcB"]);
        let comp = v.intern_component("Example");
        let obj = v.register_object("foo#0", iface, comp, ProcessId(0));
        let snap = v.snapshot();
        assert_eq!(snap.interface_name(iface), "Example::Foo");
        assert_eq!(snap.method_name(iface, MethodIndex(1)), "funcB");
        assert_eq!(snap.component_name(comp), "Example");
        let func = crate::record::FunctionKey::new(iface, MethodIndex(0), obj);
        assert_eq!(snap.qualified_function(&func), "Example::Foo.funcA@foo#0");
    }

    #[test]
    fn snapshot_placeholders_for_unknown_ids() {
        let snap = VocabSnapshot::default();
        assert_eq!(snap.interface_name(InterfaceId(9)), "<unknown-interface>");
        assert_eq!(snap.method_name(InterfaceId(9), MethodIndex(0)), "<unknown-method>");
        assert_eq!(snap.component_name(ComponentId(4)), "<unknown-component>");
        assert_eq!(snap.cpu_type_name(CpuTypeId(4)), "<unknown-cpu>");
    }

    #[test]
    fn vocab_clones_share_state() {
        let v = SystemVocab::new();
        let v2 = v.clone();
        let id = v.intern_interface("Shared", &["m"]);
        assert_eq!(v2.interface_id("Shared"), Some(id));
    }
}
