//! Early-exit threshold soundness lints.
//!
//! The adaptive driver ([`sia_snn::drive_policy`]) stops integrating
//! timesteps once the head's logits clear a confidence threshold. Whether a
//! threshold *can ever* clear is a static property of the head: logits are
//! time-averaged spike counts through the folded FC weights, so each class
//! logit lives in a t-independent interval
//!
//! ```text
//! logit_c ∈ [ Σ_ch min(w_c,ch, 0)·area·scale + bias_c ,
//!             Σ_ch max(w_c,ch, 0)·area·scale + bias_c ]
//! ```
//!
//! (binary spikes: each of the `area = in_h·in_w` positions of a channel
//! fires at most once per timestep, and the readout divides by the executed
//! timestep count). From the per-class boxes this pass bounds the best
//! achievable top1−top2 margin and the lowest achievable normalised softmax
//! entropy, and flags:
//!
//! * `exit.unreachable-threshold` — the policy can never fire: the margin
//!   threshold exceeds the best achievable margin, the entropy threshold is
//!   below the lowest achievable entropy, or the check window leaves no
//!   exit boundary before the final timestep. The run silently degrades to
//!   fixed-T, paying the confidence checks for nothing.
//! * `exit.trivial-threshold` — the policy always fires at the first
//!   boundary (margin ≤ 0, or normalised entropy ≥ 1): every image exits at
//!   the earliest opportunity regardless of confidence, which is a timestep
//!   *budget*, not an adaptive policy.
//!
//! Both are warnings (the model still runs correctly), promotable with
//! `--deny exit`.

use crate::diag::{Diagnostic, Severity};
use sia_snn::{normalized_entropy, ExitPolicy, SnnItem, SnnLinear, SnnNetwork};

/// Per-class logit interval of the accumulating head, independent of the
/// executed timestep count (the readout time-averages the accumulator).
fn head_logit_bounds(l: &SnnLinear) -> (Vec<f32>, Vec<f32>) {
    let area = (l.in_h * l.in_w) as f32;
    let scale = l.q.scale();
    let mut lo = Vec::with_capacity(l.out);
    let mut hi = Vec::with_capacity(l.out);
    for o in 0..l.out {
        let row = &l.weights[o * l.channels..(o + 1) * l.channels];
        let (neg, pos) = row.iter().fold((0i64, 0i64), |(n, p), &w| {
            let w = i64::from(w);
            (n + w.min(0), p + w.max(0))
        });
        lo.push(neg as f32 * area * scale + l.bias[o]);
        hi.push(pos as f32 * area * scale + l.bias[o]);
    }
    (lo, hi)
}

/// Best achievable top1−top2 logit margin under the per-class boxes: one
/// class at its upper bound, every other at its lower bound. Always ≥ 0
/// for the class with the largest upper bound.
fn max_achievable_margin(lo: &[f32], hi: &[f32]) -> f32 {
    let mut best = 0.0f32;
    for (c, &top) in hi.iter().enumerate() {
        let runner_up = lo
            .iter()
            .enumerate()
            .filter(|&(i, _)| i != c)
            .map(|(_, &v)| v)
            .fold(f32::NEG_INFINITY, f32::max);
        best = best.max(top - runner_up);
    }
    best
}

/// Lowest achievable normalised softmax entropy under the boxes: entropy is
/// minimised at maximal separation, so evaluate each "class `c` at its top,
/// everyone else at their bottom" corner and keep the smallest.
fn min_achievable_entropy(lo: &[f32], hi: &[f32]) -> f32 {
    let mut best = f32::INFINITY;
    let mut v = lo.to_vec();
    for c in 0..hi.len() {
        v[c] = hi[c];
        best = best.min(normalized_entropy(&v));
        v[c] = lo[c];
    }
    best
}

/// Lints an early-exit policy against the network's head: can the
/// threshold ever fire, and does it ever *not* fire? `timesteps` is the
/// fixed-T budget the adaptive run would fall back to.
#[must_use]
pub fn lint_exit(net: &SnnNetwork, policy: ExitPolicy, timesteps: usize) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    if !policy.is_adaptive() {
        return diags;
    }
    let Some((idx, head)) = net
        .items
        .iter()
        .enumerate()
        .find_map(|(i, item)| match item {
            SnnItem::Head(l) => Some((i, l)),
            _ => None,
        })
    else {
        return diags;
    };
    let name = format!("head,{}@{}", head.out, head.channels);
    let window = policy.chunk_window(timesteps);
    if window >= timesteps && timesteps > 0 {
        diags.push(
            Diagnostic::new(
                "exit.unreachable-threshold",
                Severity::Warning,
                idx,
                name,
                format!(
                    "check window {window} leaves no exit boundary before the final \
                     timestep (T = {timesteps}); the adaptive policy degrades to fixed-T"
                ),
            )
            .with_suggestion(format!(
                "use --exit-window smaller than {timesteps} (1 checks after every timestep)"
            )),
        );
        return diags;
    }
    let (lo, hi) = head_logit_bounds(head);
    match policy {
        ExitPolicy::Margin { threshold, .. } => {
            let max_margin = max_achievable_margin(&lo, &hi);
            if threshold > max_margin {
                diags.push(
                    Diagnostic::new(
                        "exit.unreachable-threshold",
                        Severity::Warning,
                        idx,
                        name,
                        format!(
                            "margin threshold {threshold} exceeds the best achievable \
                             top1−top2 logit margin {max_margin:.4} (head weight/bias \
                             interval bound); no input can ever exit early"
                        ),
                    )
                    .with_suggestion(format!(
                        "set --exit-margin at most {max_margin:.4}, or fit a threshold \
                         with `sia calibrate <model.sia>`"
                    )),
                );
            } else if threshold <= 0.0 {
                diags.push(
                    Diagnostic::new(
                        "exit.trivial-threshold",
                        Severity::Warning,
                        idx,
                        name,
                        format!(
                            "margin threshold {threshold} is satisfied by every logit \
                             vector (top1−top2 ≥ 0 always); every image exits at the \
                             first boundary after burn-in"
                        ),
                    )
                    .with_suggestion(
                        "use a positive margin, or cap timesteps directly if a fixed \
                         shorter run is intended",
                    ),
                );
            }
        }
        ExitPolicy::Entropy { threshold, .. } => {
            let min_entropy = min_achievable_entropy(&lo, &hi);
            if threshold < min_entropy {
                diags.push(
                    Diagnostic::new(
                        "exit.unreachable-threshold",
                        Severity::Warning,
                        idx,
                        name,
                        format!(
                            "entropy threshold {threshold} is below the lowest achievable \
                             normalised entropy {min_entropy:.4} (head weight/bias \
                             interval bound); no input can ever exit early"
                        ),
                    )
                    .with_suggestion(format!(
                        "set --exit-entropy at least {min_entropy:.4}, or fit a \
                         threshold with `sia calibrate <model.sia>`"
                    )),
                );
            } else if threshold >= 1.0 {
                diags.push(
                    Diagnostic::new(
                        "exit.trivial-threshold",
                        Severity::Warning,
                        idx,
                        name,
                        format!(
                            "entropy threshold {threshold} is satisfied by every logit \
                             vector (normalised entropy ≤ 1 always); every image exits \
                             at the first boundary after burn-in"
                        ),
                    )
                    .with_suggestion(
                        "use a threshold below 1, or cap timesteps directly if a fixed \
                         shorter run is intended",
                    ),
                );
            }
        }
        ExitPolicy::Fixed => unreachable!("is_adaptive() gated above"),
    }
    diags
}

#[cfg(test)]
mod tests {
    use super::*;
    use sia_fixed::QuantScale;
    use sia_snn::network::SnnLinear;

    /// A 3-class head over 4 channels with a mix of signs so margins are
    /// genuinely achievable but bounded.
    fn head(weight: i8) -> SnnLinear {
        let channels = 4;
        let out = 3;
        let mut weights = vec![0i8; out * channels];
        for (o, row) in weights.chunks_mut(channels).enumerate() {
            for (c, w) in row.iter_mut().enumerate() {
                *w = if (o + c) % 2 == 0 { weight } else { -weight };
            }
        }
        SnnLinear {
            weights,
            q: QuantScale::new(7),
            bias: vec![0.0; out],
            weights_f: vec![0.0; out * channels],
            channels,
            in_h: 2,
            in_w: 2,
            out,
        }
    }

    fn net_of(l: SnnLinear) -> SnnNetwork {
        SnnNetwork {
            name: "exit-lint".into(),
            input: (1, 2, 2),
            items: vec![SnnItem::Head(l)],
            num_classes: 3,
        }
    }

    #[test]
    fn fixed_policy_is_clean() {
        let net = net_of(head(64));
        assert!(lint_exit(&net, ExitPolicy::Fixed, 8).is_empty());
    }

    #[test]
    fn reachable_margin_is_clean() {
        let net = net_of(head(64));
        let (lo, hi) = match &net.items[0] {
            SnnItem::Head(l) => head_logit_bounds(l),
            _ => unreachable!(),
        };
        let max_margin = max_achievable_margin(&lo, &hi);
        assert!(max_margin > 0.0);
        let policy = ExitPolicy::Margin {
            threshold: max_margin / 2.0,
            window: 1,
        };
        assert!(lint_exit(&net, policy, 8).is_empty());
    }

    #[test]
    fn unreachable_margin_warns() {
        let net = net_of(head(64));
        let policy = ExitPolicy::Margin {
            threshold: 1.0e6,
            window: 1,
        };
        let diags = lint_exit(&net, policy, 8);
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].rule, "exit.unreachable-threshold");
        assert_eq!(diags[0].severity, Severity::Warning);
        assert!(diags[0].message.contains("best achievable"));
    }

    #[test]
    fn trivial_margin_warns() {
        let net = net_of(head(64));
        let policy = ExitPolicy::Margin {
            threshold: 0.0,
            window: 1,
        };
        let diags = lint_exit(&net, policy, 8);
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].rule, "exit.trivial-threshold");
    }

    #[test]
    fn unreachable_entropy_warns_for_flat_head() {
        // Tiny weights → logits confined near zero → softmax stays near
        // uniform → normalised entropy can never drop to 0.2.
        let net = net_of(head(1));
        let policy = ExitPolicy::Entropy {
            threshold: 0.2,
            window: 1,
        };
        let diags = lint_exit(&net, policy, 8);
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].rule, "exit.unreachable-threshold");
        assert!(diags[0].message.contains("lowest achievable"));
    }

    #[test]
    fn trivial_entropy_warns() {
        let net = net_of(head(64));
        let policy = ExitPolicy::Entropy {
            threshold: 1.0,
            window: 1,
        };
        let diags = lint_exit(&net, policy, 8);
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].rule, "exit.trivial-threshold");
    }

    #[test]
    fn window_without_boundary_warns() {
        let net = net_of(head(64));
        let policy = ExitPolicy::Margin {
            threshold: 0.1,
            window: 8,
        };
        let diags = lint_exit(&net, policy, 8);
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].rule, "exit.unreachable-threshold");
        assert!(diags[0].message.contains("no exit boundary"));
    }

    #[test]
    fn bounds_contain_simulated_logits() {
        // Cross-check the interval against a concrete run: drive the head
        // alone with alternating full/empty spike planes and confirm every
        // readout logit stays inside its box.
        let l = head(64);
        let (lo, hi) = head_logit_bounds(&l);
        let area = l.in_h * l.in_w;
        let per_t: [usize; 3] = [0, area / 2, area];
        for &fired in &per_t {
            for (o, (&lo_o, &hi_o)) in lo.iter().zip(&hi).enumerate() {
                // every channel fires `fired` of its positions each timestep
                let acc: i64 = (0..l.channels)
                    .map(|c| i64::from(l.weights[o * l.channels + c]) * fired as i64)
                    .sum();
                let logit = acc as f32 * l.q.scale() + l.bias[o];
                assert!(
                    logit >= lo_o - 1e-4 && logit <= hi_o + 1e-4,
                    "class {o}: {logit} outside [{lo_o}, {hi_o}]"
                );
            }
        }
    }
}
