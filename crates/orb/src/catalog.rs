//! Interface catalog: runtime metadata derived from compiled IDL.
//!
//! The vocabulary interns *names*; the catalog carries what the runtime
//! additionally needs per method — today, the `oneway` flag.

use causeway_core::ids::{InterfaceId, MethodIndex};
use causeway_core::names::SystemVocab;
use causeway_core::sync::RwLock;
use causeway_idl::CompiledSpec;
use std::collections::HashMap;
use std::sync::Arc;

#[derive(Debug, Clone)]
struct InterfaceMeta {
    oneway: Vec<bool>,
}

/// Shared interface metadata for one system. Cloning shares state.
#[derive(Debug, Clone, Default)]
pub struct InterfaceCatalog {
    inner: Arc<RwLock<HashMap<InterfaceId, InterfaceMeta>>>,
}

impl InterfaceCatalog {
    /// Creates an empty catalog.
    pub fn new() -> InterfaceCatalog {
        InterfaceCatalog::default()
    }

    /// Registers every interface of a compiled spec into `vocab` and records
    /// its runtime metadata, returning the qualified-name → id map.
    pub fn load(&self, spec: &CompiledSpec, vocab: &SystemVocab) -> HashMap<String, InterfaceId> {
        let ids = spec.register(vocab);
        let mut inner = self.inner.write();
        for iface in &spec.interfaces {
            let id = ids[&iface.qualified_name];
            inner.insert(
                id,
                InterfaceMeta {
                    oneway: iface.methods.iter().map(|m| m.oneway).collect(),
                },
            );
        }
        ids
    }

    /// Whether a method was declared `oneway`. Returns `None` when the
    /// interface or method is unknown to the catalog.
    pub fn is_oneway(&self, iface: InterfaceId, method: MethodIndex) -> Option<bool> {
        self.inner
            .read()
            .get(&iface)
            .and_then(|m| m.oneway.get(method.0 as usize))
            .copied()
    }

    /// Number of catalogued interfaces.
    pub fn len(&self) -> usize {
        self.inner.read().len()
    }

    /// `true` when no interfaces are catalogued.
    pub fn is_empty(&self) -> bool {
        self.inner.read().is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use causeway_idl::compile::{InstrumentMode, compile};
    use causeway_idl::parse;

    #[test]
    fn load_records_oneway_flags() {
        let spec = parse(
            "interface Pipe { void push(in long x); oneway void signal(in string ev); };",
        )
        .unwrap();
        let compiled = compile(&spec, InstrumentMode::Instrumented).unwrap();
        let vocab = SystemVocab::new();
        let catalog = InterfaceCatalog::new();
        let ids = catalog.load(&compiled, &vocab);
        let id = ids["Pipe"];
        assert_eq!(catalog.is_oneway(id, MethodIndex(0)), Some(false));
        assert_eq!(catalog.is_oneway(id, MethodIndex(1)), Some(true));
        assert_eq!(catalog.is_oneway(id, MethodIndex(2)), None);
        assert_eq!(catalog.is_oneway(InterfaceId(99), MethodIndex(0)), None);
        assert_eq!(catalog.len(), 1);
    }

    #[test]
    fn clones_share_state() {
        let catalog = InterfaceCatalog::new();
        let clone = catalog.clone();
        let spec = parse("interface I { void m(); };").unwrap();
        let compiled = compile(&spec, InstrumentMode::Plain).unwrap();
        catalog.load(&compiled, &SystemVocab::new());
        assert!(!clone.is_empty());
    }
}
