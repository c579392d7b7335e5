//! Golden tests for frontend diagnostics.
//!
//! Each broken program must produce *exactly* this rendered message —
//! diagnostics are part of the user interface, and the differential
//! harness's reproducer files quote them verbatim, so changes here should
//! be deliberate, not drive-by.

use minic::compile_to_module;

fn diagnostic(src: &str) -> String {
    match compile_to_module(src) {
        Ok(_) => panic!("expected a diagnostic, but this compiled:\n{src}"),
        Err(e) => e.to_string(),
    }
}

#[test]
fn lexer_diagnostics_are_stable() {
    let golden = [
        (
            "int main(void) { int x = 1 @ 2; return x; }",
            "parse error: line 1: unexpected character `@`",
        ),
        ("int main(void) { return \"abc; }", "parse error: line 1: unexpected character `\"`"),
        ("int main(void) { /* unterminated", "parse error: line 1: unterminated comment"),
        (
            "int main(void) { int 9x = 1; return 0; }",
            "parse error: line 1: malformed numeric literal `9x…`",
        ),
        ("int main(void) { return 0x; }", "parse error: line 1: empty hex literal"),
        ("char c = 'ab';", "parse error: line 1: unterminated char literal"),
    ];
    for (src, want) in golden {
        assert_eq!(diagnostic(src), want, "for {src:?}");
    }
}

#[test]
fn parser_diagnostics_are_stable() {
    let golden = [
        ("int main(void) { return 0 }", "parse error: line 1: expected Semi, found RBrace"),
        (
            "int main(void) { if (1 return 0; }",
            "parse error: line 1: expected RParen, found KwReturn",
        ),
        (
            "int a[]; int main(void) { return 0; }",
            "parse error: line 1: global array `a` needs an explicit length",
        ),
        (
            "int main(void) { int* p; return *; }",
            "parse error: line 1: expected expression, found Semi",
        ),
    ];
    for (src, want) in golden {
        assert_eq!(diagnostic(src), want, "for {src:?}");
    }
}

#[test]
fn lowering_diagnostics_are_stable() {
    let golden = [
        ("int main(void) { return y; }", "semantic error: line 1: unknown variable `y`"),
        ("void f(void) { } void f(void) { }", "semantic error: line 1: duplicate function `f`"),
        ("int main(void) { break; }", "semantic error: line 1: `break` outside a loop"),
    ];
    for (src, want) in golden {
        assert_eq!(diagnostic(src), want, "for {src:?}");
    }
}

#[test]
fn diagnostics_carry_the_failing_line_number() {
    let src = "int main(void) {\n  int x = 0;\n  x += ;\n  return x;\n}";
    assert_eq!(diagnostic(src), "parse error: line 3: expected expression, found Semi");
}

/// Deep nesting ends in a line-numbered diagnostic, not a stack overflow
/// that aborts the process; nesting well inside the limit still compiles.
#[test]
fn deep_nesting_is_a_diagnostic_not_a_crash() {
    let parens =
        |n: usize| format!("int main(int n) {{\n  return {}n{};\n}}", "(".repeat(n), ")".repeat(n));
    let blocks =
        |n: usize| format!("int main(int n) {{\n  {}return n;{}\n}}", "{".repeat(n), "}".repeat(n));
    for src in [parens(10_000), blocks(10_000)] {
        let msg = diagnostic(&src);
        assert!(msg.starts_with("parse error: line 2: nesting deeper than"), "{msg}");
    }
    for src in [parens(60), blocks(120)] {
        compile_to_module(&src).unwrap_or_else(|e| panic!("{e}"));
    }
}

/// A long flat operator chain builds a left-deep tree without nesting the
/// parser; past the chain limit it ends in a line-numbered diagnostic, not
/// a stack overflow in the recursive passes after parsing. The longest
/// accepted chain, and one at the nesting limit's deepest operand, still
/// compile.
#[test]
fn long_operator_chains_are_a_diagnostic_not_a_crash() {
    let sum =
        |terms: usize| format!("int main(int n) {{\n  return {}n;\n}}", "n + ".repeat(terms - 1));
    for terms in [600, 10_000] {
        let msg = diagnostic(&sum(terms));
        assert_eq!(msg, "parse error: line 2: more than 128 operators in one expression");
    }
    let index = format!("int a[4];\nint main(int n) {{\n  return a{};\n}}", "[0]".repeat(10_000));
    assert_eq!(
        diagnostic(&index),
        "parse error: line 3: more than 128 operators in one expression"
    );
    // Parentheses do not reset the count: 40 groups of 4 operators nest
    // well inside the nesting limit but chain 160 operators.
    let mut grouped = "n".to_string();
    for _ in 0..40 {
        grouped = format!("({grouped} + n + n + n + n)");
    }
    let grouped = format!("int main(int n) {{\n  return {grouped};\n}}");
    assert_eq!(
        diagnostic(&grouped),
        "parse error: line 2: more than 128 operators in one expression"
    );
    let deepest =
        format!("int main(int n) {{\n  return {}n{};\n}}", "- ".repeat(120), " + n".repeat(128));
    for src in [sum(129), deepest] {
        compile_to_module(&src).unwrap_or_else(|e| panic!("{e}"));
    }
}
