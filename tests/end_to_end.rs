//! End-to-end tests: source text → optimized circuit → simulated result,
//! across language features and optimization levels.

use cash::{Compiler, MemSystem, OptLevel, SimConfig};

fn run_full(src: &str, args: &[i64]) -> i64 {
    Compiler::new()
        .compile(src)
        .expect("compiles")
        .simulate(args, &SimConfig::perfect())
        .expect("runs")
        .ret
        .expect("returns a value")
}

#[test]
fn arithmetic_operators() {
    let src = "int main(int a, int b) {
        return (a + b) * (a - b) + a / (b + 1) + a % (b + 1) + (a << 2) + (a >> 1)
             + (a & b) + (a | b) + (a ^ b) + (~a) + (-b);
    }";
    let f = |a: i64, b: i64| {
        let (a, b) = (a as i32, b as i32);
        i64::from(
            (a + b) * (a - b)
                + a / (b + 1)
                + a % (b + 1)
                + (a << 2)
                + (a >> 1)
                + (a & b)
                + (a | b)
                + (a ^ b)
                + !a
                + -b,
        )
    };
    for (a, b) in [(5, 3), (100, 7), (-13, 4), (0, 0), (-100, 99)] {
        assert_eq!(run_full(src, &[a, b]), f(a, b), "a={a} b={b}");
    }
}

#[test]
fn comparisons_and_logic() {
    let src = "int main(int a, int b) {
        int r = 0;
        if (a < b) r |= 1;
        if (a <= b) r |= 2;
        if (a > b) r |= 4;
        if (a >= b) r |= 8;
        if (a == b) r |= 16;
        if (a != b) r |= 32;
        if (a < 0 && b < 0) r |= 64;
        if (a < 0 || b < 0) r |= 128;
        if (!a) r |= 256;
        return r;
    }";
    let f = |a: i64, b: i64| {
        let mut r = 0;
        if a < b {
            r |= 1;
        }
        if a <= b {
            r |= 2;
        }
        if a > b {
            r |= 4;
        }
        if a >= b {
            r |= 8;
        }
        if a == b {
            r |= 16;
        }
        if a != b {
            r |= 32;
        }
        if a < 0 && b < 0 {
            r |= 64;
        }
        if a < 0 || b < 0 {
            r |= 128;
        }
        if a == 0 {
            r |= 256;
        }
        r
    };
    for (a, b) in [(1, 2), (2, 1), (3, 3), (-1, -2), (0, 5), (-7, 7)] {
        assert_eq!(run_full(src, &[a, b]), f(a, b), "a={a} b={b}");
    }
}

#[test]
fn unsigned_semantics() {
    // Unsigned comparison and shift differ from signed.
    let src = "int main(int x) {
        unsigned u = x;
        int r = 0;
        if (u > 0x7fffffff) r += 1;      /* negative ints become huge */
        r += (u >> 28) & 15;
        return r;
    }";
    assert_eq!(run_full(src, &[-1]), 1 + 15);
    assert_eq!(run_full(src, &[1]), 0);
}

#[test]
fn char_and_short_widths() {
    let src = "
        char c[4]; short s[4];
        int main(int x) {
            c[0] = x; s[0] = x;
            return c[0] * 100000 + s[0];
        }";
    // 300 wraps to 44 in i8; stays 300 in i16.
    assert_eq!(run_full(src, &[300]), 44 * 100000 + 300);
    // -1 sign-extends from both widths.
    assert_eq!(run_full(src, &[-1]), -100001);
}

#[test]
fn nested_loops_with_three_inner() {
    // The g721 shape that once deadlocked: several inner loops in sequence.
    let src = "
        int a[8];
        int main(int n) {
            int acc = 0;
            for (int i = 0; i < n; i++) {
                for (int k = 0; k < 4; k++) acc += a[k];
                for (int k = 3; k > 0; k--) a[k] = a[k-1];
                a[0] = i;
                for (int k = 0; k < 2; k++) acc += k + i;
            }
            return acc;
        }";
    let f = |n: i64| {
        let mut a = [0i64; 8];
        let mut acc = 0;
        for i in 0..n {
            for &v in &a[..4] {
                acc += v;
            }
            for k in (1..4).rev() {
                a[k] = a[k - 1];
            }
            a[0] = i;
            for k in 0..2 {
                acc += k + i;
            }
        }
        acc
    };
    for n in [0, 1, 2, 5, 9] {
        assert_eq!(run_full(src, &[n]), f(n), "n={n}");
    }
}

#[test]
fn do_while_break_continue() {
    let src = "int main(int n) {
        int acc = 0;
        int i = 0;
        do {
            i++;
            if (i == 3) continue;
            if (i > n) break;
            acc += i;
        } while (i < 100);
        return acc;
    }";
    let f = |n: i64| {
        let mut acc = 0;
        let mut i = 0;
        loop {
            i += 1;
            if i != 3 {
                if i > n {
                    break;
                }
                acc += i;
            }
            if i >= 100 {
                break;
            }
        }
        acc
    };
    for n in [0, 2, 5, 50] {
        assert_eq!(run_full(src, &[n]), f(n), "n={n}");
    }
}

#[test]
fn ternary_and_nested_calls() {
    let src = "
        int mx(int a, int b) { return a > b ? a : b; }
        int mn(int a, int b) { return a < b ? a : b; }
        int clamp(int x, int lo, int hi) { return mx(lo, mn(x, hi)); }
        int main(int x) { return clamp(x, -10, 10) * 3; }";
    assert_eq!(run_full(src, &[100]), 30);
    assert_eq!(run_full(src, &[-100]), -30);
    assert_eq!(run_full(src, &[4]), 12);
}

#[test]
fn pointer_parameters_and_swap() {
    let src = "
        void swap(int* p, int* q) { int t = *p; *p = *q; *q = t; }
        int g1; int g2;
        int main(int a, int b) {
            g1 = a; g2 = b;
            if (g1 > g2) swap(&g1, &g2);
            return g1 * 1000 + g2;
        }";
    assert_eq!(run_full(src, &[7, 3]), 3007);
    assert_eq!(run_full(src, &[3, 7]), 3007);
}

#[test]
fn every_level_preserves_results_on_branchy_memory_code() {
    let src = "
        int tab[32]; int out[32];
        int main(int n) {
            for (int i = 0; i < n; i++) tab[i] = (i * 91) & 127;
            int acc = 0;
            for (int i = 0; i < n; i++) {
                if (tab[i] & 1) out[i] = tab[i] * 2;
                else out[i] = tab[i] - 1;
                if (out[i] > 100) out[i] = 100;
                acc += out[i];
            }
            return acc;
        }";
    let mut results = Vec::new();
    for level in OptLevel::ALL {
        let p = Compiler::new().level(level).compile(src).unwrap();
        let r = p.simulate(&[24], &SimConfig::perfect()).unwrap();
        results.push(r.ret);
    }
    assert!(results.windows(2).all(|w| w[0] == w[1]), "{results:?}");
}

#[test]
fn realistic_memory_system_is_functionally_identical() {
    let src = "
        int big[2048];
        int main(int n) {
            for (int i = 0; i < n; i++) big[(i * 97) & 2047] = i;
            int acc = 0;
            for (int i = 0; i < n; i++) acc += big[(i * 97) & 2047];
            return acc;
        }";
    let p = Compiler::new().compile(src).unwrap();
    let perfect = p.simulate(&[300], &SimConfig::perfect()).unwrap();
    let real = p
        .simulate(&[300], &SimConfig { mem: MemSystem::default(), ..SimConfig::default() })
        .unwrap();
    assert_eq!(perfect.ret, real.ret);
    assert!(real.cycles > perfect.cycles, "caches must cost something here");
    assert!(real.stats.l1_misses > 0);
}

#[test]
fn immutable_table_lookups_fold_or_run() {
    let src = "
        const int t[8] = {1, 2, 4, 8, 16, 32, 64, 128};
        int main(int i) { return t[3] + t[i & 7]; }";
    let p = Compiler::new().compile(src).unwrap();
    // t[3] folds to 8 at compile time; t[i&7] stays a load.
    assert_eq!(p.static_memory_ops().0, 1);
    let r = p.simulate(&[5], &SimConfig::perfect()).unwrap();
    assert_eq!(r.ret, Some(8 + 32));
}

#[test]
fn deep_expression_nesting() {
    let src = "int main(int x) {
        return ((((x + 1) * 2 - 3) << 1) | 1) ^ ((x ? x : 1) + (x > 0 ? -x : x));
    }";
    let f = |x: i64| {
        ((((x + 1) * 2 - 3) << 1) | 1)
            ^ ((if x != 0 { x } else { 1 }) + (if x > 0 { -x } else { x }))
    };
    for x in [-9, -1, 0, 1, 2, 77] {
        assert_eq!(run_full(src, &[x]), f(x), "x={x}");
    }
}

#[test]
fn results_are_invariant_under_hardware_sizing() {
    // Channel depth, LSQ ports and LSQ size are timing knobs: on this
    // program results and memory traffic must not change with them.
    let src = "
        int a[64]; int b[65];
        int main(int n) {
            for (int i = 0; i < n; i++) {
                b[i+1] = (i * 3) & 31;
                a[i] = b[i] + a[i] + 1;
                if (a[i] > 20) a[i] -= 7;
            }
            int s = 0;
            for (int i = 0; i < n; i++) s += a[i] * (i + 1);
            return s;
        }";
    for level in [OptLevel::None, OptLevel::Full] {
        let p = Compiler::new().level(level).compile(src).unwrap();
        let mut expect = None;
        for cap in [2usize, 3, 8, 32] {
            for (ports, size) in [(1u32, 4u32), (2, 16), (8, 64)] {
                let cfg = SimConfig {
                    channel_capacity: cap,
                    lsq_ports: ports,
                    lsq_size: size,
                    ..SimConfig::perfect()
                };
                let r = p.simulate(&[40], &cfg).unwrap();
                let key = (r.ret, r.stats.loads, r.stats.stores);
                match &expect {
                    None => expect = Some(key),
                    Some(e) => assert_eq!(*e, key, "{level}: cap={cap} ports={ports} size={size}"),
                }
            }
        }
    }
}

#[test]
fn zero_trip_and_single_trip_loops() {
    let src = "
        int a[8];
        int main(int n) {
            int s = 100;
            for (int i = 0; i < n; i++) { a[i] = i; s += a[i]; }
            return s;
        }";
    let p = Compiler::new().compile(src).unwrap();
    for (n, want) in [(0i64, 100i64), (1, 100), (2, 101), (8, 128)] {
        let r = p.simulate(&[n], &SimConfig::perfect()).unwrap();
        assert_eq!(r.ret, Some(want), "n={n}");
    }
}

#[test]
fn global_scalar_initializers_load_correctly() {
    let src = "
        int g = 41;
        const int k = 1;
        int main(void) { return g + k; }";
    assert_eq!(run_full(src, &[]), 42);
}

/// A variable set before a loop from a load, then overwritten in the loop
/// with a value that does not depend on it. The loop-header merge can
/// receive the constant back-edge value before the late entry value and,
/// popping by arrival order, return the stale one: the result is 5 at
/// memory latency 0 or 1 and 0 at latency 2 or 8, at `None` and `Full`
/// alike. With `x = x + 5` in the body the result is correct.
#[test]
#[ignore = "known miscompile: the loop-header merge pops by arrival order, so a late entry value loses to the back edge"]
fn late_entry_value_survives_a_constant_loop_overwrite() {
    let src = "int g[4]; int main(int n) { int x = g[n & 3]; for (int i = 0; i < 1; i++) x = 5; return x; }";
    for level in [OptLevel::None, OptLevel::Full] {
        let p = Compiler::new().level(level).compile(src).unwrap();
        for latency in [1u64, 2, 8] {
            let cfg = SimConfig { mem: MemSystem::Perfect { latency }, ..SimConfig::default() };
            let r = p.simulate(&[0], &cfg).unwrap();
            assert_eq!(r.ret, Some(5), "{level} at latency {latency}");
        }
    }
}
