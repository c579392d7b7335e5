//! Minimal, deterministic VCD (Value Change Dump, IEEE 1364) writer.
//!
//! The simulator's waveform capture (`ashsim::wavecap`) renders through
//! this builder; it is generic so other producers (e.g. future fabric
//! models) can emit viewable waveforms too. Output is **byte-stable**:
//! identifier codes are assigned in variable-declaration order, and value
//! changes are emitted grouped by ascending timestamp with a stable sort,
//! so insertion order breaks ties. Two captures with identical signals
//! and changes render to identical bytes — the waveform goldens rely on
//! this.
//!
//! Only the subset of VCD that GTKWave needs is produced: `$timescale`,
//! nested `$scope module` declarations, `wire` variables of 1–64 bits,
//! a `$dumpvars` block initializing every variable to `x`, and `#t`
//! timestamped change records (`0c`/`1c` for scalars, `b<bits> c` for
//! vectors).

use std::fmt::Write as _;

/// Handle to a declared variable; index into the writer's var table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VarId(u32);

/// An in-memory VCD document builder. Declare the scope/var tree first,
/// then append changes in any order; [`VcdWriter::render`] sorts them.
#[derive(Debug, Default)]
pub struct VcdWriter {
    comment: String,
    decls: String,
    widths: Vec<u32>,
    open_scopes: usize,
    changes: Vec<(u64, u32, u64)>,
}

/// Identifier codes use the printable ASCII range `!`..=`~` (94 symbols)
/// as digits, shortest-first, matching what standard dumpers emit.
fn id_code(mut n: u32) -> String {
    let mut s = String::new();
    loop {
        s.push((33 + (n % 94)) as u8 as char);
        n /= 94;
        if n == 0 {
            break;
        }
        n -= 1;
    }
    s
}

impl VcdWriter {
    /// New writer; `comment` lands in `$comment` (one line, informational)
    /// and `timescale` in `$timescale` (e.g. `"1ns"` — the simulator maps
    /// one self-timed cycle to one tick).
    pub fn new(comment: &str, timescale: &str) -> Self {
        let mut w = VcdWriter::default();
        let _ = write!(w.comment, "$comment {comment} $end\n$timescale {timescale} $end\n");
        w
    }

    /// Opens a child scope (`$scope module <name> $end`).
    pub fn scope(&mut self, name: &str) {
        let _ = writeln!(self.decls, "$scope module {name} $end");
        self.open_scopes += 1;
    }

    /// Closes the innermost open scope.
    pub fn upscope(&mut self) {
        debug_assert!(self.open_scopes > 0, "upscope with no open scope");
        self.decls.push_str("$upscope $end\n");
        self.open_scopes = self.open_scopes.saturating_sub(1);
    }

    /// Declares a `wire` of `width` bits (1..=64) in the current scope.
    pub fn var(&mut self, name: &str, width: u32) -> VarId {
        assert!((1..=64).contains(&width), "vcd var width {width} out of range");
        let id = self.widths.len() as u32;
        let _ = writeln!(self.decls, "$var wire {width} {} {name} $end", id_code(id));
        self.widths.push(width);
        VarId(id)
    }

    /// Records `var := value` at time `t`. Values wider than the declared
    /// width are truncated by the binary rendering (callers pass two's-
    /// complement bit patterns for signed data).
    pub fn change(&mut self, t: u64, var: VarId, value: u64) {
        self.changes.push((t, var.0, value));
    }

    /// Number of declared variables.
    pub fn num_vars(&self) -> usize {
        self.widths.len()
    }

    /// Number of recorded changes.
    pub fn num_changes(&self) -> usize {
        self.changes.len()
    }

    fn write_value(out: &mut String, width: u32, value: u64, code: &str) {
        if width == 1 {
            let _ = writeln!(out, "{}{code}", value & 1);
        } else {
            let masked = if width == 64 { value } else { value & ((1u64 << width) - 1) };
            let mut bits = String::new();
            let top = 64 - masked.leading_zeros().min(63);
            for i in (0..top.max(1)).rev() {
                bits.push(if (masked >> i) & 1 == 1 { '1' } else { '0' });
            }
            let _ = writeln!(out, "b{bits} {code}");
        }
    }

    /// Renders the complete document. Changes are stable-sorted by time,
    /// so same-cycle changes keep their insertion order.
    pub fn render(mut self) -> String {
        debug_assert_eq!(self.open_scopes, 0, "unbalanced scopes at render");
        let mut out = self.comment;
        out.push_str(&self.decls);
        out.push_str("$enddefinitions $end\n");
        out.push_str("$dumpvars\n");
        for (i, w) in self.widths.iter().enumerate() {
            if *w == 1 {
                let _ = writeln!(out, "x{}", id_code(i as u32));
            } else {
                let _ = writeln!(out, "bx {}", id_code(i as u32));
            }
        }
        out.push_str("$end\n");
        self.changes.sort_by_key(|c| c.0);
        let mut cur_t = None;
        for (t, var, value) in &self.changes {
            if cur_t != Some(*t) {
                let _ = writeln!(out, "#{t}");
                cur_t = Some(*t);
            }
            Self::write_value(&mut out, self.widths[*var as usize], *value, &id_code(*var));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn id_codes_cover_base94() {
        assert_eq!(id_code(0), "!");
        assert_eq!(id_code(93), "~");
        assert_eq!(id_code(94), "!!");
        assert_eq!(id_code(94 + 94 * 94), "!!!");
    }

    #[test]
    fn renders_sorted_and_stable() {
        let mut w = VcdWriter::new("test", "1ns");
        w.scope("top");
        let a = w.var("a", 1);
        let b = w.var("b", 8);
        w.upscope();
        w.change(5, b, 0xff);
        w.change(0, a, 1);
        w.change(5, a, 0);
        let s = w.render();
        let i0 = s.find("#0\n").unwrap();
        let i5 = s.find("#5\n").unwrap();
        assert!(i0 < i5);
        // Insertion order within #5: b's change was appended first.
        assert!(s[i5..].find("b11111111 \"").unwrap() < s[i5..].find("0!").unwrap());
        assert!(s.contains("$var wire 1 ! a $end"));
        assert!(s.contains("$var wire 8 \" b $end"));
        assert!(s.contains("$dumpvars\nx!\nbx \"\n$end\n"));
    }

    #[test]
    fn wide_values_trim_leading_zeros_but_keep_one_digit() {
        let mut w = VcdWriter::new("t", "1ns");
        w.scope("s");
        let v = w.var("v", 64);
        w.upscope();
        w.change(1, v, 0);
        w.change(2, v, 6);
        let s = w.render();
        assert!(s.contains("#1\nb0 !\n#2\nb110 !\n"));
    }
}
