//! Textual emitters: render the compiler's internal translation (Figure 3)
//! and illustrative stub/skeleton code for inspection.
//!
//! The runtimes do not execute emitted text — they are driven by the
//! [`CompiledSpec`] metadata — but the emitters make the transformation
//! visible exactly as the paper's figure does, and the `exp_idl_translation`
//! experiment binary prints them.

use crate::compile::{CompiledInterface, CompiledMethod, CompiledSpec, InstrumentMode};

/// Renders the compiled spec back as IDL, with the hidden FTL parameter
/// visible — the right-hand side of Figure 3. When compiled with
/// [`InstrumentMode::Plain`] this is simply the original interface set.
///
/// The output re-parses: module nesting is reconstructed from the
/// qualified names, so `parse(translated_idl(compile(parse(src), Plain)))`
/// yields the same compiled spec (up to formatting). Instrumented output
/// additionally references `Probe::FunctionTxLogType`, which the compiler
/// resolves as its own built-in (the figure's `UUID` member is shown as a
/// comment because `UUID` is itself outside the IDL subset).
pub fn translated_idl(spec: &CompiledSpec) -> String {
    let mut out = String::new();
    if spec.mode == InstrumentMode::Instrumented {
        out.push_str("// Internal translation by the instrumenting IDL compiler.\n");
        out.push_str("// interface Probe {\n");
        out.push_str("//     struct FunctionTxLogType {\n");
        out.push_str("//         UUID global_function_id;\n");
        out.push_str("//         unsigned long event_seq_no;\n");
        out.push_str("//     };\n");
        out.push_str("// };\n\n");
    }

    // Rebuild the module tree from qualified names.
    #[derive(Default)]
    struct ModuleNode<'a> {
        children: Vec<(String, ModuleNode<'a>)>,
        structs: Vec<&'a crate::ast::StructDef>,
        /// (number of inherited leading methods, the interface)
        interfaces: Vec<(usize, &'a CompiledInterface)>,
    }
    impl<'a> ModuleNode<'a> {
        fn child(&mut self, name: &str) -> &mut ModuleNode<'a> {
            if let Some(pos) = self.children.iter().position(|(n, _)| n == name) {
                return &mut self.children[pos].1;
            }
            self.children.push((name.to_owned(), ModuleNode::default()));
            &mut self.children.last_mut().expect("just pushed").1
        }
        fn insert_struct(&mut self, path: &[&str], def: &'a crate::ast::StructDef) {
            match path {
                [] | [_] => self.structs.push(def),
                [head, rest @ ..] => self.child(head).insert_struct(rest, def),
            }
        }
        fn insert_interface(&mut self, path: &[&str], entry: (usize, &'a CompiledInterface)) {
            match path {
                [] | [_] => self.interfaces.push(entry),
                [head, rest @ ..] => self.child(head).insert_interface(rest, entry),
            }
        }
    }

    // Inherited methods were flattened in first; recover the base's method
    // count so derived interfaces emit only their own declarations (the
    // re-parse re-inherits the rest).
    let inherited_count = |iface: &CompiledInterface| -> usize {
        let Some(base) = &iface.base else { return 0 };
        spec.interfaces
            .iter()
            .find(|candidate| {
                candidate.qualified_name == *base
                    || candidate.qualified_name.ends_with(&format!("::{base}"))
            })
            .map(|base_iface| base_iface.methods.len())
            .unwrap_or(0)
    };

    let mut root = ModuleNode::default();
    for (qualified, def) in &spec.structs {
        let path: Vec<&str> = qualified.split("::").collect();
        root.insert_struct(&path, def);
    }
    for iface in &spec.interfaces {
        let path: Vec<&str> = iface.qualified_name.split("::").collect();
        root.insert_interface(&path, (inherited_count(iface), iface));
    }

    fn render_module(node: &ModuleNode<'_>, indent: usize, out: &mut String) {
        let pad = "    ".repeat(indent);
        for def in &node.structs {
            out.push_str(&format!("{pad}struct {} {{\n", def.name));
            for (ty, name) in &def.fields {
                out.push_str(&format!("{pad}    {ty} {name};\n"));
            }
            out.push_str(&format!("{pad}}};\n"));
        }
        for iface in &node.interfaces {
            render_interface(iface.1, iface.0, indent, out);
        }
        for (name, child) in &node.children {
            out.push_str(&format!("{pad}module {name} {{\n"));
            render_module(child, indent + 1, out);
            out.push_str(&format!("{pad}}};\n"));
        }
    }
    render_module(&root, 0, &mut out);
    out
}

fn render_interface(iface: &CompiledInterface, inherited: usize, indent: usize, out: &mut String) {
    let pad = "    ".repeat(indent);
    let name = iface
        .qualified_name
        .rsplit("::")
        .next()
        .expect("split never yields nothing");
    match &iface.base {
        // Emit the unqualified base name: bases resolve within the
        // enclosing module on re-parse.
        Some(base) => {
            let base_name = base.rsplit("::").next().expect("non-empty");
            out.push_str(&format!("{pad}interface {name} : {base_name} {{\n"));
        }
        None => out.push_str(&format!("{pad}interface {name} {{\n")),
    }
    // Inherited methods are re-inherited from the base on re-parse; emit
    // only the ones this interface declared (those past the base's).
    for method in &iface.methods[inherited.min(iface.methods.len())..] {
        out.push_str(&format!("{pad}    "));
        if method.oneway {
            out.push_str("oneway ");
        }
        out.push_str(&format!("{} {}(", method.result, method.name));
        let rendered: Vec<String> = method
            .params
            .iter()
            .map(|p| format!("{} {} {}", p.dir, p.ty, p.name))
            .collect();
        out.push_str(&rendered.join(", "));
        out.push(')');
        if !method.raises.is_empty() {
            out.push_str(&format!(" raises ({})", method.raises.join(", ")));
        }
        out.push_str(";\n");
    }
    out.push_str(&format!("{pad}}};\n"));
}


/// Renders illustrative client-stub code for one method, showing where the
/// four probes sit and how the FTL rides the request (Figure 1, client side).
pub fn stub_code(iface: &CompiledInterface, method: &CompiledMethod) -> String {
    let mut out = String::new();
    let qn = &iface.qualified_name;
    out.push_str(&format!("// Generated stub for {qn}::{}\n", method.name));
    out.push_str(&format!("fn {}(&self, args: Vec<Value>) -> MethodResult {{\n", method.name));
    if method.is_instrumented() {
        out.push_str("    // Probe 1: stub start — read/mint the chain from TSS,\n");
        out.push_str("    // issue the next event number, record.\n");
        out.push_str("    let out = monitor.stub_start(func, kind);\n");
        out.push_str("    let payload = wire::append_ftl(wire::encode_args(&args), out.wire_ftl);\n");
    } else {
        out.push_str("    let payload = wire::encode_args(&args);\n");
    }
    if method.oneway {
        out.push_str("    transport.send_oneway(target, payload);\n");
        if method.is_instrumented() {
            out.push_str("    // Probe 4: stub end — the parent chain continues from TSS.\n");
            out.push_str("    monitor.stub_end(func, kind, None);\n");
        }
        out.push_str("    MethodResult::ok(Value::Void)\n");
    } else {
        out.push_str("    let reply = transport.call(target, payload)?;\n");
        if method.is_instrumented() {
            out.push_str("    let (body, reply_ftl) = wire::split_ftl(reply)?;\n");
            out.push_str("    // Probe 4: stub end — continue the chain from the reply FTL.\n");
            out.push_str("    monitor.stub_end(func, kind, Some(reply_ftl));\n");
            out.push_str("    decode_result(body)\n");
        } else {
            out.push_str("    decode_result(reply)\n");
        }
    }
    out.push_str("}\n");
    out
}

/// Renders illustrative skeleton code for one method (Figure 1, server side).
pub fn skeleton_code(iface: &CompiledInterface, method: &CompiledMethod) -> String {
    let mut out = String::new();
    let qn = &iface.qualified_name;
    out.push_str(&format!("// Generated skeleton for {qn}::{}\n", method.name));
    out.push_str("fn dispatch(&self, payload: Vec<u8>) -> Vec<u8> {\n");
    if method.is_instrumented() {
        out.push_str("    let (body, ftl) = wire::split_ftl(payload)?;\n");
        out.push_str("    // Probe 2: skeleton start — install the FTL in this thread's TSS.\n");
        out.push_str("    monitor.skel_start(func, kind, ftl, oneway_parent);\n");
        out.push_str("    let result = servant.dispatch(ctx, method, wire::decode_args(&body)?);\n");
        out.push_str("    // Probe 3: skeleton end — pick the updated FTL for the reply.\n");
        out.push_str("    let reply_ftl = monitor.skel_end(func, kind);\n");
        if method.oneway {
            out.push_str("    Vec::new() // one-way: no reply\n");
        } else {
            out.push_str("    wire::append_ftl(encode_result(result), reply_ftl)\n");
        }
    } else {
        out.push_str("    let result = servant.dispatch(ctx, method, wire::decode_args(&payload)?);\n");
        out.push_str("    encode_result(result)\n");
    }
    out.push_str("}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile::compile;
    use crate::parse;

    const FIGURE_3: &str = r#"
        module Example {
            interface Foo {
                void funcA(in long x);
                string funcB(in float y);
            };
        };
    "#;

    #[test]
    fn translated_idl_shows_the_hidden_parameter() {
        let spec = parse(FIGURE_3).unwrap();
        let compiled = compile(&spec, InstrumentMode::Instrumented).unwrap();
        let text = translated_idl(&compiled);
        assert!(text.contains("struct FunctionTxLogType"));
        assert!(text.contains("void funcA(in long x, inout Probe::FunctionTxLogType log);"));
        assert!(
            text.contains("string funcB(in float y, inout Probe::FunctionTxLogType log);")
        );
    }

    #[test]
    fn plain_idl_is_untranslated() {
        let spec = parse(FIGURE_3).unwrap();
        let compiled = compile(&spec, InstrumentMode::Plain).unwrap();
        let text = translated_idl(&compiled);
        assert!(!text.contains("FunctionTxLogType"));
        assert!(text.contains("void funcA(in long x);"));
    }

    #[test]
    fn stub_code_mentions_probes_when_instrumented() {
        let spec = parse(FIGURE_3).unwrap();
        let compiled = compile(&spec, InstrumentMode::Instrumented).unwrap();
        let foo = compiled.interface("Example::Foo").unwrap();
        let code = stub_code(foo, &foo.methods[0]);
        assert!(code.contains("stub_start"));
        assert!(code.contains("append_ftl"));
        let skel = skeleton_code(foo, &foo.methods[0]);
        assert!(skel.contains("skel_start"));
        assert!(skel.contains("skel_end"));
    }

    #[test]
    fn plain_stub_code_has_no_probes() {
        let spec = parse(FIGURE_3).unwrap();
        let compiled = compile(&spec, InstrumentMode::Plain).unwrap();
        let foo = compiled.interface("Example::Foo").unwrap();
        let code = stub_code(foo, &foo.methods[0]);
        assert!(!code.contains("stub_start"));
        let skel = skeleton_code(foo, &foo.methods[0]);
        assert!(!skel.contains("skel_start"));
    }

    #[test]
    fn oneway_stub_sends_without_reply() {
        let spec = parse("interface I { oneway void fire(in string ev); };").unwrap();
        let compiled = compile(&spec, InstrumentMode::Instrumented).unwrap();
        let iface = compiled.interface("I").unwrap();
        let code = stub_code(iface, &iface.methods[0]);
        assert!(code.contains("send_oneway"));
        assert!(!code.contains("split_ftl"));
    }

    #[test]
    fn raises_and_base_render() {
        let spec = parse(
            "interface B { void a(); }; interface D : B { void m() raises (Err); };",
        )
        .unwrap();
        let compiled = compile(&spec, InstrumentMode::Plain).unwrap();
        let text = translated_idl(&compiled);
        assert!(text.contains("interface D : B"));
        assert!(text.contains("raises (Err)"));
    }
}

#[cfg(test)]
mod round_trip_tests {
    use crate::compile::{InstrumentMode, compile};
    use crate::emit::translated_idl;
    use crate::parse;

    /// `parse ∘ emit` is the identity on compiled plain specs.
    fn assert_round_trips(src: &str) {
        let original = compile(&parse(src).unwrap(), InstrumentMode::Plain).unwrap();
        let emitted = translated_idl(&original);
        let reparsed = compile(
            &parse(&emitted).unwrap_or_else(|e| panic!("emitted IDL reparses: {e}\n{emitted}")),
            InstrumentMode::Plain,
        )
        .unwrap_or_else(|e| panic!("emitted IDL recompiles: {e}\n{emitted}"));
        // The emitter regroups by module, which may permute declaration
        // order across modules — compare order-insensitively.
        let sort = |spec: &crate::compile::CompiledSpec| {
            let mut interfaces = spec.interfaces.clone();
            interfaces.sort_by(|a, b| a.qualified_name.cmp(&b.qualified_name));
            interfaces
        };
        assert_eq!(sort(&reparsed), sort(&original), "\n{emitted}");
        assert_eq!(reparsed.structs.len(), original.structs.len());
    }

    #[test]
    fn flat_interfaces_round_trip() {
        assert_round_trips("interface A { void x(in long a); }; interface B { long y(); };");
    }

    #[test]
    fn nested_modules_round_trip() {
        assert_round_trips(
            r#"
            module Top {
                struct Job { long id; string title; };
                interface Queue { void push(in Job item); Job pop(); };
                module Inner {
                    interface Deep { oneway void fire(in string ev); };
                };
            };
            interface Loose { double f(in float v); };
            "#,
        );
    }

    #[test]
    fn inheritance_round_trips() {
        assert_round_trips(
            "interface Base { void a(); void b(in string s); }; \
             interface Derived : Base { void c() raises (Oops); };",
        );
    }

    #[test]
    fn sequences_round_trip() {
        assert_round_trips(
            "interface S { void blob(in sequence<octet> data); \
             sequence<long> ids(in sequence<sequence<double>> grid); };",
        );
    }

    #[test]
    fn instrumented_emission_reparses_too() {
        // Instrumented specs reference Probe::FunctionTxLogType, which the
        // compiler treats as a built-in — the emitted text must reparse and
        // recompile in *plain* mode without double-instrumenting.
        let original = compile(
            &parse("module M { interface I { void m(in long x); }; };").unwrap(),
            InstrumentMode::Instrumented,
        )
        .unwrap();
        let emitted = translated_idl(&original);
        let reparsed = compile(&parse(&emitted).unwrap(), InstrumentMode::Plain).unwrap();
        let method = &reparsed.interface("M::I").unwrap().methods[0];
        assert_eq!(method.params.len(), 2, "hidden param now visible as a real one");
        assert_eq!(method.params[1].name, "log");
    }
}
