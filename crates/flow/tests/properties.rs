//! Property-based tests: max-flow/min-cut duality on random networks,
//! parametric-reuse equivalence, and exactness of the rational
//! arithmetic.

use lhcds_flow::{Dinic, ParametricNetwork, Ratio};
use proptest::prelude::*;

#[derive(Debug, Clone)]
struct Net {
    n: usize,
    arcs: Vec<(u32, u32, i128)>,
}

fn arb_net() -> impl Strategy<Value = Net> {
    (3usize..10).prop_flat_map(|n| {
        prop::collection::vec((0..n as u32, 0..n as u32, 0i128..50), 1..(n * n).min(40)).prop_map(
            move |raw| Net {
                n,
                arcs: raw.into_iter().filter(|&(u, v, _)| u != v).collect(),
            },
        )
    })
}

/// A kernel-oracle network on at most 9 nodes (`s = 0`, `t = n − 1`):
/// capacities include zero, some arcs are doubled into parallel pairs,
/// self-loops and isolated nodes occur, and the source may have no
/// out-arcs at all.
fn arb_small_net() -> impl Strategy<Value = Net> {
    (2usize..10, any::<bool>()).prop_flat_map(|(n, mute_source)| {
        prop::collection::vec(
            // capacities 9..12 fold to 0: zero arcs are common
            (
                0..n as u32,
                0..n as u32,
                (0i128..12).prop_map(|c| if c < 9 { c } else { 0 }),
                any::<bool>(),
            ),
            0..3 * n,
        )
        .prop_map(move |raw| {
            let mut arcs = Vec::new();
            for (u, v, c, doubled) in raw {
                if mute_source && u == 0 {
                    continue;
                }
                arcs.push((u, v, c));
                if doubled {
                    arcs.push((u, v, c / 2));
                }
            }
            Net { n, arcs }
        })
    })
}

/// The inclusion-smallest and inclusion-largest minimum-cut source
/// sides, by brute force over every `S` with `s ∈ S`, `t ∉ S`. Minimum
/// cuts are closed under intersection and union, so these are the
/// intersection and the union of all of them.
fn brute_force_cut_sides(n: usize, arcs: &[(u32, u32, i128)]) -> (Vec<bool>, Vec<bool>) {
    let (s, t) = (0, n - 1);
    let mut best = i128::MAX;
    let (mut smallest, mut largest) = (0u32, 0u32);
    for mask in 0u32..1 << n {
        if mask & (1 << s) == 0 || mask & (1 << t) != 0 {
            continue;
        }
        let cut: i128 = arcs
            .iter()
            .filter(|&&(u, v, _)| mask & (1 << u) != 0 && mask & (1 << v) == 0)
            .map(|&(_, _, c)| c)
            .sum();
        if cut < best {
            (best, smallest, largest) = (cut, mask, mask);
        } else if cut == best {
            smallest &= mask;
            largest |= mask;
        }
    }
    let side = |mask: u32| (0..n).map(|v| mask & (1 << v) != 0).collect();
    (side(smallest), side(largest))
}

proptest! {
    /// Both canonical cut sides of a plain Dinic are the brute-force
    /// inclusion-smallest and inclusion-largest minimum cuts.
    #[test]
    fn cut_sides_match_brute_force(net in arb_small_net()) {
        let (s, t) = (0u32, (net.n - 1) as u32);
        let mut d = Dinic::new(net.n);
        for &(u, v, c) in &net.arcs {
            d.add_edge(u, v, c);
        }
        d.max_flow(s, t);
        let (smallest, largest) = brute_force_cut_sides(net.n, &net.arcs);
        prop_assert_eq!(d.min_cut_source_side(s), smallest);
        prop_assert_eq!(d.max_cut_source_side(t), largest);
    }

    /// The same oracle after every solve of a retained
    /// ParametricNetwork driven through a schedule of parametric
    /// capacities and scales (warm, retracting and cold solves alike).
    #[test]
    fn parametric_cut_sides_match_brute_force(
        net in arb_small_net(),
        param_ends in prop::collection::vec((0u32..9, 0u32..9), 0..8),
        schedule in prop::collection::vec(
            (prop::collection::vec(0i128..12, 8), 1i128..5),
            1..5,
        ),
    ) {
        let (s, t) = (0u32, (net.n - 1) as u32);
        let param_ends: Vec<(u32, u32)> = param_ends
            .into_iter()
            .map(|(u, v)| (u % net.n as u32, v % net.n as u32))
            .collect();
        let mut pn = ParametricNetwork::new(net.n, s, t);
        for &(u, v, c) in &net.arcs {
            pn.add_static(u, v, c);
        }
        for &(u, v) in &param_ends {
            pn.add_parametric(u, v);
        }
        for (caps_raw, den) in schedule {
            let scale = pn.scale_for(den);
            let caps: Vec<i128> = (0..pn.param_count()).map(|i| caps_raw[i] * scale).collect();
            pn.solve(scale, &caps);
            let mut arcs: Vec<(u32, u32, i128)> =
                net.arcs.iter().map(|&(u, v, c)| (u, v, c * scale)).collect();
            arcs.extend(param_ends.iter().zip(&caps).map(|(&(u, v), &c)| (u, v, c)));
            let (smallest, largest) = brute_force_cut_sides(net.n, &arcs);
            prop_assert_eq!(pn.min_cut_source_side(), smallest);
            prop_assert_eq!(pn.max_cut_source_side(), largest);
        }
    }

    /// Max-flow equals the capacity of the minimal source-side cut and
    /// of the maximal source-side cut, and the two sides are nested.
    #[test]
    fn maxflow_mincut_duality(net in arb_net()) {
        let (s, t) = (0u32, (net.n - 1) as u32);
        let mut d = Dinic::new(net.n);
        for &(u, v, c) in &net.arcs {
            d.add_edge(u, v, c);
        }
        let flow = d.max_flow(s, t);
        prop_assert!(flow >= 0);

        let lo = d.min_cut_source_side(s);
        let hi = d.max_cut_source_side(t);
        prop_assert!(lo[s as usize] && !lo[t as usize]);
        prop_assert!(hi[s as usize] && !hi[t as usize]);
        // nested
        for i in 0..net.n {
            prop_assert!(!lo[i] || hi[i]);
        }
        // both cuts have capacity exactly `flow`
        for side in [&lo, &hi] {
            let cut: i128 = net
                .arcs
                .iter()
                .filter(|&&(u, v, _)| side[u as usize] && !side[v as usize])
                .map(|&(_, _, c)| c)
                .sum();
            prop_assert_eq!(cut, flow);
        }
    }

    /// Flow conservation at interior nodes.
    #[test]
    fn conservation(net in arb_net()) {
        let (s, t) = (0u32, (net.n - 1) as u32);
        let mut d = Dinic::new(net.n);
        let ids: Vec<_> = net.arcs.iter().map(|&(u, v, c)| (u, v, c, d.add_edge(u, v, c))).collect();
        let flow = d.max_flow(s, t);
        let mut net_out = vec![0i128; net.n];
        for (u, v, c, id) in ids {
            let f = c - d.residual(id);
            prop_assert!(f >= 0 && f <= c);
            net_out[u as usize] += f;
            net_out[v as usize] -= f;
        }
        prop_assert_eq!(net_out[s as usize], flow);
        prop_assert_eq!(net_out[t as usize], -flow);
        for &x in &net_out[1..net.n - 1] {
            prop_assert_eq!(x, 0);
        }
    }

    /// A reused ParametricNetwork, driven through an arbitrary schedule
    /// of parametric capacities (monotone or not) and scale
    /// denominators, answers every solve with exactly the cut sides of
    /// a freshly built Dinic at the same capacities.
    #[test]
    fn parametric_reuse_equals_fresh_networks(
        net in arb_net(),
        schedule in prop::collection::vec(
            (prop::collection::vec(0i128..40, 8), 1i128..7),
            1..6,
        ),
    ) {
        let (s, t) = (0u32, (net.n - 1) as u32);
        let mut pn = ParametricNetwork::new(net.n, s, t);
        // static arcs: the random net's arcs at unit scale
        for &(u, v, c) in &net.arcs {
            pn.add_static(u, v, c);
        }
        // parametric arcs: s→v and v→t for every interior node
        let mut param_ends: Vec<(u32, u32)> = Vec::new();
        for v in 1..(net.n as u32 - 1) {
            pn.add_parametric(s, v);
            param_ends.push((s, v));
            pn.add_parametric(v, t);
            param_ends.push((v, t));
        }
        for (caps_raw, den) in schedule {
            let scale = pn.scale_for(den);
            prop_assert_eq!(scale % den, 0);
            let caps: Vec<i128> = (0..pn.param_count())
                .map(|i| caps_raw[i % caps_raw.len()] * scale)
                .collect();
            pn.solve(scale, &caps);

            let mut d = Dinic::new(net.n);
            for &(u, v, c) in &net.arcs {
                d.add_edge(u, v, c * scale);
            }
            for (i, &(u, v)) in param_ends.iter().enumerate() {
                d.add_edge(u, v, caps[i]);
            }
            d.max_flow(s, t);
            prop_assert_eq!(pn.min_cut_source_side(), d.min_cut_source_side(s));
            prop_assert_eq!(pn.max_cut_source_side(), d.max_cut_source_side(t));
        }
    }

    /// Ratio ordering agrees with exact cross-multiplication computed
    /// in i128 on small operands.
    #[test]
    fn ratio_order_matches_reference(a in -500i128..500, b in 1i128..500, c in -500i128..500, d in 1i128..500) {
        let x = Ratio::new(a, b);
        let y = Ratio::new(c, d);
        let reference = (a * d).cmp(&(c * b));
        prop_assert_eq!(x.cmp(&y), reference);
    }

    /// Field laws on small rationals (exact arithmetic).
    #[test]
    fn ratio_field_laws(a in -40i128..40, b in 1i128..20, c in -40i128..40, d in 1i128..20) {
        let x = Ratio::new(a, b);
        let y = Ratio::new(c, d);
        prop_assert_eq!(x + y, y + x);
        prop_assert_eq!(x * y, y * x);
        prop_assert_eq!((x + y) - y, x);
        prop_assert_eq!(x - x, Ratio::zero());
        if c != 0 {
            prop_assert_eq!((x / y) * y, x);
        }
        // distributivity
        let z = Ratio::new(d, b);
        prop_assert_eq!(x * (y + z), x * y + x * z);
    }

    /// Huge-magnitude comparisons do not overflow (the continued-
    /// fraction path).
    #[test]
    fn ratio_order_no_overflow(a in 0i128..1_000_000_000_000_000_000, b in 1i128..1_000_000_000) {
        let big = Ratio::new(a.max(1) * 1_000_000_000, b);
        let small = Ratio::new(1, b);
        prop_assert!(big >= small);
        let sentinel = Ratio::new(i128::MAX / 2, 1);
        prop_assert!(sentinel > big);
        prop_assert!(-sentinel < small);
    }

    /// scale_to_int round-trips through exact division.
    #[test]
    fn scale_to_int_round_trip(num in -1000i128..1000, den in 1i128..60, mult in 1i128..50) {
        let r = Ratio::new(num, den);
        let scale = r.den() * mult;
        let scaled = r.scale_to_int(scale);
        prop_assert_eq!(Ratio::new(scaled, scale), r);
    }
}
