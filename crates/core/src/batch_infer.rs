//! ChainNet's one inference forward: tape-free and stacked.
//!
//! [`predict`] evaluates a batch of placement graphs; a single graph is
//! a batch of one, so [`Surrogate::predict`](crate::model::Surrogate::predict)
//! and [`Surrogate::predict_batch`](crate::model::Surrogate::predict_batch)
//! run the same code. Graphs are grouped by skeleton (feature mode,
//! chain count, per-chain step counts, device count) and each group runs
//! as one stacked pass: every algorithm slot (a chain's service state, a
//! step's fragment state, a device's state) is a block of `B` rows, one
//! per graph. The per-step *device wiring* may differ inside a group —
//! messages gather each graph's own device row — which is the shape of
//! an SA neighbourhood whose moves reassign fragments among an unchanged
//! device set.
//!
//! The weights are packed once per call ([`Packed`]) into the (k, n)
//! layout of [`matmul_kn_into`]. Products that do not depend on each
//! other also run as one kernel call over more rows: the input half of
//! φ_C for every step (its messages read only the previous iteration's
//! states), φ_F for every step, and φ_D with its attention for every
//! device. Only φ_C's recurrent half walks the steps one at a time.
//!
//! # Bit-identity contract
//!
//! Every expression replicates the corresponding op of the tape forward
//! [`ChainNet::forward`] exactly: each kernel output is one ascending-k
//! accumulation from zero, like the tape's `matvec`, and the elementwise
//! steps use the tape's literal expressions and evaluation order. Each
//! prediction is therefore bit-identical to the tape forward followed by
//! [`outputs_to_natural_units`]; `tests/batched_inference.rs` enforces it
//! with exact equality.

use crate::config::TargetMode;
use crate::data::outputs_to_natural_units;
use crate::graph::PlacementGraph;
use crate::model::{ChainNet, PerfPrediction};
use chainnet_neural::layers::{pack_kn, PackedGru, PackedLinear, PackedMlp};
use chainnet_neural::tensor::matmul_kn_into;

/// Predict every graph of `graphs`, one prediction vector per graph in
/// input order. Graphs that share a skeleton are stacked into one pass;
/// a batch of mixed skeletons runs one pass per skeleton.
pub(crate) fn predict(net: &ChainNet, graphs: &[PlacementGraph]) -> Vec<Vec<PerfPrediction>> {
    let packed = Packed::new(net);
    let mut groups: Vec<Vec<usize>> = Vec::new();
    for (idx, g) in graphs.iter().enumerate() {
        match groups
            .iter_mut()
            .find(|grp| same_skeleton(&graphs[grp[0]], g))
        {
            Some(grp) => grp.push(idx),
            None => groups.push(vec![idx]),
        }
    }
    let mut out = vec![Vec::new(); graphs.len()];
    for grp in groups {
        let members: Vec<&PlacementGraph> = grp.iter().map(|&i| &graphs[i]).collect();
        for (idx, preds) in grp.into_iter().zip(packed.forward(&members)) {
            out[idx] = preds;
        }
    }
    out
}

/// Predict one graph: a batch of one.
pub(crate) fn predict_one(net: &ChainNet, graph: &PlacementGraph) -> Vec<PerfPrediction> {
    Packed::new(net).forward(&[graph]).pop().unwrap_or_default()
}

/// Whether two graphs can share a stacked pass.
fn same_skeleton(a: &PlacementGraph, b: &PlacementGraph) -> bool {
    a.feature_mode == b.feature_mode
        && a.devices.len() == b.devices.len()
        && a.chains.len() == b.chains.len()
        && a.chains
            .iter()
            .zip(&b.chains)
            .all(|(x, y)| x.steps.len() == y.steps.len())
}

/// ChainNet's weights for one inference call, in the (k, n) layout of
/// [`matmul_kn_into`]. Built per call and dropped after it, so nothing
/// goes stale when the weights are trained or replaced.
struct Packed<'n> {
    net: &'n ChainNet,
    enc_service: PackedLinear,
    enc_frag: PackedLinear,
    enc_dev: PackedLinear,
    phi_c: PackedGru,
    phi_f: PackedGru,
    phi_d: PackedGru,
    /// Every head's `w_score`, side by side: `(3h, heads·h)`.
    w_score: Vec<f64>,
    /// Every head's scoring vector `a`, head after head.
    a: Vec<f64>,
    /// Every head's `w_msg`, side by side: `(2h, 2h)`.
    w_msg: Vec<f64>,
    mlp_tput: PackedMlp,
    mlp_latency: PackedMlp,
}

impl<'n> Packed<'n> {
    fn new(net: &'n ChainNet) -> Self {
        let store = &net.store;
        let w_score: Vec<_> = net.attention.iter().map(|hd| hd.w_score).collect();
        let w_msg: Vec<_> = net.attention.iter().map(|hd| hd.w_msg).collect();
        Self {
            net,
            enc_service: net.enc_service.pack(store),
            enc_frag: net.enc_frag.pack(store),
            enc_dev: net.enc_dev.pack(store),
            phi_c: net.phi_c.pack(store),
            phi_f: net.phi_f.pack(store),
            phi_d: net.phi_d.pack(store),
            w_score: pack_kn(store, &w_score),
            a: net
                .attention
                .iter()
                .flat_map(|hd| store.value(hd.a).data().iter().copied())
                .collect(),
            w_msg: pack_kn(store, &w_msg),
            mlp_tput: net.mlp_tput.pack(store),
            mlp_latency: net.mlp_latency.pack(store),
        }
    }

    /// Algorithm 2 over a group of graphs sharing one skeleton. State
    /// row `(slot, b)` of graph `b` lives at `(slot·B + b)·h`.
    fn forward(&self, gs: &[&PlacementGraph]) -> Vec<Vec<PerfPrediction>> {
        let Some(g0) = gs.first() else {
            return Vec::new();
        };
        let cfg = &self.net.config;
        let (bsz, h) = (gs.len(), cfg.hidden);
        // Step slots in traversal order: chain i's step j is slot
        // `first[i] + j`.
        let mut first = Vec::with_capacity(g0.chains.len());
        let mut steps = Vec::new();
        for (i, c) in g0.chains.iter().enumerate() {
            first.push(steps.len());
            steps.extend((0..c.steps.len()).map(|j| (i, j)));
        }
        let block = bsz * h;

        // Line 1: encode input features.
        let encode =
            |enc: &PackedLinear, slots: usize, feat: &dyn Fn(&PlacementGraph, usize) -> &[f64]| {
                let mut x = Vec::new();
                for s in 0..slots {
                    for g in gs {
                        x.extend_from_slice(feat(g, s));
                    }
                }
                let mut out = vec![0.0; slots * block];
                enc.forward_into(&x, &mut out);
                out
            };
        let mut hs = encode(&self.enc_service, g0.chains.len(), &|g, i| {
            &g.chains[i].service_feat
        });
        let mut hf = encode(&self.enc_frag, steps.len(), &|g, s| {
            let (i, j) = steps[s];
            &g.chains[i].steps[j].frag_feat
        });
        let mut hd = encode(&self.enc_dev, g0.devices.len(), &|g, k| &g.devices[k].feat);

        // Lines 2-16: N message-passing iterations. hs, hf and hd hold
        // the service, fragment and device states; fp is hf as the
        // iteration found it, ss each step's new service state.
        let mut fp = vec![0.0; hf.len()];
        let mut ss = vec![0.0; hf.len()];
        let (mut msg, mut wx, mut scratch) = (Vec::new(), Vec::new(), Vec::new());
        for _n in 0..cfg.iterations {
            // Snapshot h_j^{(n-1)} (Eqs. 6 and 10).
            fp.copy_from_slice(&hf);

            // Eq. 6 for every step: m_C = [h_j^(n-1) || h_k^(n-1)]. It
            // reads only previous-iteration states, so φ_C's input
            // products for all steps are one kernel call.
            step_messages(&mut msg, &fp, &hd, gs, &steps, h);
            wx.clear();
            wx.resize(steps.len() * bsz * 3 * h, 0.0);
            self.phi_c.input_products(&msg, &mut wx);
            // Eqs. 4-5: the recurrent half walks each sequence.
            for (i, c) in g0.chains.iter().enumerate() {
                let h_i = &mut hs[i * block..(i + 1) * block];
                for s in first[i]..first[i] + c.steps.len() {
                    let wx_s = &wx[s * 3 * block..(s + 1) * 3 * block];
                    self.phi_c.step_from_products(wx_s, h_i, &mut scratch);
                    ss[s * block..(s + 1) * block].copy_from_slice(h_i);
                }
            }

            // Eqs. 7-8 for every step: m_F = [h_i^(n),j || h_k^(n-1)];
            // hf still holds h_j^(n-1) and is updated in place.
            step_messages(&mut msg, &ss, &hd, gs, &steps, h);
            self.phi_f.step(&msg, &mut hf, &mut wx, &mut scratch);

            // Lines 12-15 for every device: Eq. 10 messages, attention
            // (Eqs. 14-16) where steps share a device, then Eq. 9.
            self.device_messages(&mut msg, &ss, &fp, &hd, gs, &first);
            self.phi_d.step(&msg, &mut hd, &mut wx, &mut scratch);
        }

        // Line 17 / Eq. 12: prediction heads over every chain at once.
        let mut lat_latent = vec![0.0; hs.len()];
        for (i, c) in g0.chains.iter().enumerate() {
            latency_latent(
                cfg.target_mode,
                &hf[first[i] * block..(first[i] + c.steps.len()) * block],
                &mut lat_latent[i * block..(i + 1) * block],
            );
        }
        let mut t_raw = self.mlp_tput.forward(&hs);
        let mut l_raw = self.mlp_latency.forward(&lat_latent);
        if matches!(cfg.target_mode, TargetMode::Ratio) {
            for v in t_raw.iter_mut().chain(l_raw.iter_mut()) {
                *v = 1.0 / (1.0 + (-*v).exp());
            }
        }

        gs.iter()
            .enumerate()
            .map(|(b, graph)| {
                (0..g0.chains.len())
                    .map(|i| {
                        let (throughput, latency) = outputs_to_natural_units(
                            cfg.target_mode,
                            graph,
                            i,
                            t_raw[i * bsz + b],
                            l_raw[i * bsz + b],
                        );
                        PerfPrediction {
                            throughput,
                            latency,
                        }
                    })
                    .collect()
            })
            .collect()
    }

    /// The φ_D inputs `m_D` of every (device, graph) row: the lone Eq. 10
    /// message `[h_i^(n),j || h_j^(n-1)]` of a device one step uses, or
    /// the attention aggregate `f_multi` (Eqs. 14-16) of a shared one.
    /// The attention products of every shared device run as one kernel
    /// call each for the scores and the value transforms.
    fn device_messages(
        &self,
        msg: &mut Vec<f64>,
        ss: &[f64],
        fp: &[f64],
        hd: &[f64],
        gs: &[&PlacementGraph],
        first: &[usize],
    ) {
        let (bsz, h) = (gs.len(), self.net.config.hidden);
        let row = |slot: usize, b: usize| (slot * bsz + b) * h..(slot * bsz + b + 1) * h;
        let n_dev = hd.len() / (bsz * h).max(1);
        msg.clear();
        msg.resize(n_dev * bsz * 2 * h, 0.0);
        // Shared devices: (output row, first attention row, step count).
        let mut shared = Vec::new();
        let (mut att_in, mut att_msg) = (Vec::new(), Vec::new());
        for k in 0..n_dev {
            for (b, g) in gs.iter().enumerate() {
                let out_row = k * bsz + b;
                let dev_steps = &g.devices[k].steps;
                if let [(i, j)] = dev_steps[..] {
                    let s = first[i] + j;
                    let out = &mut msg[out_row * 2 * h..(out_row + 1) * 2 * h];
                    out[..h].copy_from_slice(&ss[row(s, b)]);
                    out[h..].copy_from_slice(&fp[row(s, b)]);
                    continue;
                }
                shared.push((out_row, att_msg.len() / (2 * h).max(1), dev_steps.len()));
                for &(i, j) in dev_steps {
                    let s = first[i] + j;
                    att_in.extend_from_slice(&hd[row(k, b)]);
                    for part in [&ss[row(s, b)], &fp[row(s, b)]] {
                        att_in.extend_from_slice(part);
                        att_msg.extend_from_slice(part);
                    }
                }
            }
        }
        if shared.is_empty() {
            return;
        }

        // e_t = a^T LeakyReLU(W [h_k || m_t]) for every head and row.
        let heads = self.net.attention.len();
        let rows = att_msg.len() / (2 * h);
        let mut act = vec![0.0; rows * heads * h];
        matmul_kn_into(&att_in, &self.w_score, 3 * h, heads * h, &mut act);
        let slope = self.net.config.leaky_slope;
        for v in &mut act {
            *v = if *v > 0.0 { *v } else { slope * *v };
        }
        let scores: Vec<f64> = act
            .chunks_exact(h.max(1))
            .zip(self.a.chunks_exact(h.max(1)).cycle())
            .map(|(x, a)| {
                let mut acc = 0.0;
                for (&w, &v) in a.iter().zip(x) {
                    acc += w * v;
                }
                acc
            })
            .collect();
        // W_msg m_t for every head and row.
        let mut values = vec![0.0; rows * 2 * h];
        matmul_kn_into(&att_msg, &self.w_msg, 2 * h, 2 * h, &mut values);

        let head_w = 2 * h / heads.max(1);
        let mut alpha = Vec::new();
        for (out_row, t0, t_cnt) in shared {
            let out = &mut msg[out_row * 2 * h..(out_row + 1) * 2 * h];
            for head in 0..heads {
                // Softmax in the tape's order: max-subtract, exp in
                // index order, sum, divide.
                alpha.clear();
                alpha.extend((t0..t0 + t_cnt).map(|t| scores[t * heads + head]));
                let max = alpha.iter().copied().fold(f64::NEG_INFINITY, f64::max);
                for e in &mut alpha {
                    *e = (*e - max).exp();
                }
                let z: f64 = alpha.iter().copied().sum();
                for e in &mut alpha {
                    *e /= z;
                }
                // Σ_t α_t (W_msg m_t), accumulated in ascending t like
                // the tape's weighted_sum.
                let seg = head * head_w..(head + 1) * head_w;
                for (t, &a_t) in (t0..t0 + t_cnt).zip(&alpha) {
                    let v_row = &values[t * 2 * h..(t + 1) * 2 * h];
                    for (o, &v) in out[seg.clone()].iter_mut().zip(&v_row[seg.clone()]) {
                        *o += a_t * v;
                    }
                }
            }
        }
    }
}

/// The `(steps·B, 2h)` messages `[left_(s,b) || h_dev[device_b(s)]_b]`
/// of every step slot `s` and graph `b` (Eqs. 6 and 8).
fn step_messages(
    msg: &mut Vec<f64>,
    left: &[f64],
    hd: &[f64],
    gs: &[&PlacementGraph],
    steps: &[(usize, usize)],
    h: usize,
) {
    let bsz = gs.len();
    msg.clear();
    for (s, &(i, j)) in steps.iter().enumerate() {
        for (b, g) in gs.iter().enumerate() {
            let dev = g.chains[i].steps[j].device;
            msg.extend_from_slice(&left[(s * bsz + b) * h..(s * bsz + b + 1) * h]);
            msg.extend_from_slice(&hd[(dev * bsz + b) * h..(dev * bsz + b + 1) * h]);
        }
    }
}

/// The latency head input (Eq. 12) of one chain for every graph: the
/// elementwise mean of its fragment-state blocks `frags`, scaled by the
/// step count in `Absolute` mode — the tape's `mean_vecs` and `affine`
/// expressions.
fn latency_latent(mode: TargetMode, frags: &[f64], out: &mut [f64]) {
    out.fill(0.0);
    let blocks = frags.len() / out.len().max(1);
    for f in frags.chunks_exact(out.len().max(1)) {
        for (a, &v) in out.iter_mut().zip(f) {
            *a += v;
        }
    }
    let n = blocks as f64;
    for x in out.iter_mut() {
        *x /= n;
    }
    if matches!(mode, TargetMode::Absolute) {
        let alpha = blocks as f64;
        for x in out.iter_mut() {
            *x = alpha * *x + 0.0;
        }
    }
}
