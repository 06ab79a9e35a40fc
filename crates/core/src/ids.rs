//! Small, copyable identifier newtypes used throughout the framework.
//!
//! Identifiers convey meaning through distinct types rather than bare
//! integers (C-NEWTYPE): a [`ProcessId`] can never be confused with a
//! [`NodeId`] even though both wrap a `u16`.

use std::fmt;

/// Identifies a *processor* (a machine / board) in the deployment.
///
/// Each node carries a CPU type (see [`crate::deploy::NodeInfo`]); the
/// analyzer reports descendant CPU consumption as a vector with one slot per
/// distinct CPU type (`<C1, C2, … CM>` in the paper).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub u16);

/// Identifies an operating-system *process* in the deployment.
///
/// In this reproduction a "process" is a runtime domain with its own object
/// registry, server engine and transport inbox; crossing a process boundary
/// always involves genuine byte-level marshalling (see `causeway-orb`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ProcessId(pub u16);

/// Identifies a thread *within a process*.
///
/// Logical thread identifiers are assigned densely (0, 1, 2, …) by the
/// process's [`crate::sink::LogStore`] the first time a thread records a
/// probe, which mirrors how the paper reports "the code base is partitioned
/// into 32 threads".
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct LogicalThreadId(pub u32);

/// Identifies a component *object instance* (the paper's `ObjectID`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ObjectId(pub u64);

/// Identifies an *interface* (an IDL `interface` declaration) by its interned
/// name in the [`crate::names::SystemVocab`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct InterfaceId(pub u32);

/// Identifies a method *within* an interface by its declaration index.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct MethodIndex(pub u16);

/// Identifies a processor *type* (e.g. `"HPUX"`, `"WindowsNT"`, `"VxWorks"`)
/// by its interned name.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct CpuTypeId(pub u16);

macro_rules! impl_display {
    ($($ty:ident => $prefix:literal),* $(,)?) => {
        $(impl fmt::Display for $ty {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, concat!($prefix, "{}"), self.0)
            }
        })*
    };
}

impl_display! {
    NodeId => "node",
    ProcessId => "proc",
    LogicalThreadId => "thr",
    ObjectId => "obj",
    InterfaceId => "if",
    MethodIndex => "m",
    CpuTypeId => "cpu",
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_forms_are_prefixed() {
        assert_eq!(NodeId(3).to_string(), "node3");
        assert_eq!(ProcessId(1).to_string(), "proc1");
        assert_eq!(LogicalThreadId(12).to_string(), "thr12");
        assert_eq!(ObjectId(42).to_string(), "obj42");
        assert_eq!(InterfaceId(7).to_string(), "if7");
        assert_eq!(MethodIndex(2).to_string(), "m2");
        assert_eq!(CpuTypeId(0).to_string(), "cpu0");
    }

    #[test]
    fn ids_are_ordered_and_hashable() {
        use std::collections::HashSet;
        let mut set = HashSet::new();
        set.insert(ObjectId(1));
        set.insert(ObjectId(2));
        set.insert(ObjectId(1));
        assert_eq!(set.len(), 2);
        assert!(NodeId(1) < NodeId(2));
    }
}
