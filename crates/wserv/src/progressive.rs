//! Progressive, prioritized response delivery.
//!
//! The paper's banded pyramid is naturally progressive: the LL plane
//! carries most of the energy and each detail plane refines it. This
//! module turns a [`DecomposeResponse`] into an ordered plane sequence
//! — the header frame ships the exact LL plane plus all serving
//! metadata, then detail planes follow in decreasing energy order — and
//! reassembles the sequence on the receiving side with a running,
//! provable error bound, so a client can stop (and cancel the request)
//! the moment its tolerance is met.
//!
//! Detail planes are optionally compressed on the wire with
//! [`CheckpointCodec::WaveletQuant`] — the exact arithmetic the
//! recovery layer uses for checkpoints, so the codec's
//! `threshold + step / 2` bound carries over verbatim. With
//! [`CheckpointCodec::Raw`] (or an all-zero quantizer) planes ship
//! untouched and a complete reassembly is **bitwise identical** to the
//! monolithic response.
//!
//! Bound bookkeeping: each frame carries `bound_after`, the largest
//! absolute per-coefficient error of the partial reassembly *versus
//! the shipped (post-codec) pyramid* once that frame is applied —
//! `max(codec tolerance, max |original coefficient| over planes still
//! outstanding)`. The outstanding set only shrinks along the sequence,
//! so the bound is monotone nonincreasing by construction. The bound
//! versus the *exact* decomposition adds the server-side
//! `base_error_bound` (triangle inequality); [`Reassembler::bound`]
//! reports that sum.

use dwt::Pyramid;
use dwt_mimd::{encode_plane, CheckpointCodec};

use crate::request::DecomposeResponse;
use crate::wire::{PlaneBand, PlaneCoeffs, ProgressiveHeader, ProgressivePlane, WireError};

fn corrupt(detail: impl Into<String>) -> WireError {
    WireError::FrameCorrupt {
        detail: detail.into(),
    }
}

/// `a.max(b)`, except that a NaN on either side wins: `f64::max`
/// drops NaN, which would turn a bound over NaN coefficients into a
/// finite lie.
fn nan_max(a: f64, b: f64) -> f64 {
    if a.is_nan() || b.is_nan() {
        f64::NAN
    } else {
        a.max(b)
    }
}

/// Largest `|v|` in `data`; NaN if any value is NaN.
fn max_abs(data: &[f64]) -> f64 {
    data.iter().fold(0.0f64, |m, v| nan_max(m, v.abs()))
}

/// Sparse wins when `kept * (8 + 4) < total * 8` — the same breakeven
/// [`dwt_mimd::encoded_bytes`] bills for checkpoints.
fn pick_coeffs(data: Vec<f64>) -> PlaneCoeffs {
    let kept = data.iter().filter(|v| **v != 0.0).count();
    if kept * 12 < data.len() * 8 {
        PlaneCoeffs::Sparse(
            data.iter()
                .enumerate()
                .filter(|(_, v)| **v != 0.0)
                .map(|(i, v)| (i as u32, *v))
                .collect(),
        )
    } else {
        PlaneCoeffs::Dense(data)
    }
}

/// Split a successful response into a progressive header + detail-plane
/// sequence, quantizing detail planes with `codec` on the way out.
///
/// Plane order is decreasing post-codec energy (ties broken by
/// `(level, band)` so the order is total and deterministic). Each
/// plane's `bound_after` is computed from the **original** coefficient
/// magnitudes of the planes still outstanding, so the sequence of
/// bounds is honest for a receiver that reads missing planes as zero.
///
/// With a lossless codec (`Raw`, or `WaveletQuant` with
/// `threshold == 0 && step == 0`) planes ship untouched — byte-for-byte
/// the monolithic coefficients, including signed zeros.
pub fn split_response(
    resp: &DecomposeResponse,
    codec: CheckpointCodec,
) -> Result<(ProgressiveHeader, Vec<ProgressivePlane>), WireError> {
    if !codec.is_valid() {
        return Err(corrupt("invalid progressive codec parameters"));
    }
    let lossless = codec.tolerance() == 0.0;
    let (rows, cols) = resp.pyramid.image_dims();
    let levels = resp.pyramid.levels();

    struct Cand {
        level: usize,
        band: PlaneBand,
        rows: usize,
        cols: usize,
        data: Vec<f64>,
        orig_max: f64,
        energy: f64,
    }
    let mut cands = Vec::with_capacity(3 * levels);
    for (i, sb) in resp.pyramid.detail.iter().enumerate() {
        let level = i + 1;
        for (band, m) in [
            (PlaneBand::Lh, &sb.lh),
            (PlaneBand::Hl, &sb.hl),
            (PlaneBand::Hh, &sb.hh),
        ] {
            let orig_max = max_abs(m.data());
            let data = if lossless {
                // encode_plane normalizes -0.0 to +0.0; bypass it so a
                // complete lossless reassembly stays bitwise identical.
                m.data().to_vec()
            } else {
                let mut coded = m.clone();
                let (threshold, step) = match codec {
                    CheckpointCodec::Raw => (0.0, 0.0),
                    CheckpointCodec::WaveletQuant { threshold, step } => (threshold, step),
                };
                encode_plane(&mut coded, threshold, step);
                coded.into_vec()
            };
            let energy = data.iter().map(|v| v * v).sum::<f64>();
            cands.push(Cand {
                level,
                band,
                rows: m.rows(),
                cols: m.cols(),
                data,
                orig_max,
                energy,
            });
        }
    }
    // Highest-energy planes first; ties resolved structurally so the
    // order (and therefore the wire bytes) is deterministic.
    cands.sort_by(|a, b| {
        b.energy
            .total_cmp(&a.energy)
            .then(a.level.cmp(&b.level))
            .then((a.band as u8).cmp(&(b.band as u8)))
    });

    // bound_after[j] = max(codec tolerance, max orig_max over planes
    // strictly after j). Computed back-to-front.
    let tol = codec.tolerance();
    let n = cands.len();
    let mut bounds = vec![tol; n];
    let mut running = tol;
    for j in (0..n).rev() {
        bounds[j] = running;
        running = nan_max(running, cands[j].orig_max);
    }
    let header_bound = running; // all detail planes outstanding

    let header = ProgressiveHeader {
        cache_hit: resp.cache_hit,
        degraded: resp.degraded,
        batch_size: resp.batch_size,
        wait_s: resp.wait_s,
        service_s: resp.service_s,
        base_error_bound: resp.error_bound,
        rows,
        cols,
        levels,
        planes_total: n,
        codec_tolerance: tol,
        bound_after: header_bound,
        approx: resp.pyramid.approx.clone(),
    };
    let planes = cands
        .into_iter()
        .zip(bounds)
        .enumerate()
        .map(|(j, (c, bound_after))| ProgressivePlane {
            seq: j + 1,
            level: c.level,
            band: c.band,
            rows: c.rows,
            cols: c.cols,
            bound_after,
            coeffs: pick_coeffs(c.data),
        })
        .collect();
    Ok((header, planes))
}

/// Incremental client-side reassembly of a progressive response.
///
/// Applying planes is idempotent (a replayed sequence after a retry
/// re-applies planes already held without changing the result), and
/// [`Reassembler::bound`] is monotone nonincreasing as planes land.
#[derive(Debug, Clone)]
pub struct Reassembler {
    header: ProgressiveHeader,
    pyramid: Pyramid,
    applied: Vec<bool>,
    /// Tightest `bound_after` seen so far (progressive part only).
    progressive_bound: f64,
}

impl Reassembler {
    /// Start a reassembly from the header frame's payload.
    pub fn new(header: ProgressiveHeader) -> Result<Reassembler, WireError> {
        let mut pyramid = Pyramid::zeros(header.rows, header.cols, header.levels)
            .map_err(|e| corrupt(format!("progressive header geometry: {e}")))?;
        pyramid.approx = header.approx.clone();
        let applied = vec![false; header.planes_total];
        let progressive_bound = header.bound_after;
        Ok(Reassembler {
            header,
            pyramid,
            applied,
            progressive_bound,
        })
    }

    /// Apply one detail-plane frame. Duplicate `seq` values (dedup
    /// replays resend the whole sequence) are no-ops.
    pub fn apply(&mut self, plane: &ProgressivePlane) -> Result<(), WireError> {
        if plane.seq == 0 || plane.seq > self.header.planes_total {
            return Err(corrupt(format!(
                "plane seq {} outside 1..={}",
                plane.seq, self.header.planes_total
            )));
        }
        if plane.level == 0 || plane.level > self.header.levels {
            return Err(corrupt(format!(
                "plane level {} outside 1..={}",
                plane.level, self.header.levels
            )));
        }
        let sb = &mut self.pyramid.detail[plane.level - 1];
        let (rows, cols) = (sb.rows(), sb.cols());
        if plane.rows != rows || plane.cols != cols {
            return Err(corrupt(format!(
                "plane is {}x{}, level {} demands {}x{}",
                plane.rows, plane.cols, plane.level, rows, cols
            )));
        }
        let target = match plane.band {
            PlaneBand::Lh => &mut sb.lh,
            PlaneBand::Hl => &mut sb.hl,
            PlaneBand::Hh => &mut sb.hh,
        };
        match &plane.coeffs {
            PlaneCoeffs::Dense(data) => {
                if data.len() != rows * cols {
                    return Err(corrupt("dense plane length mismatch"));
                }
                target.data_mut().copy_from_slice(data);
            }
            PlaneCoeffs::Sparse(entries) => {
                let out = target.data_mut();
                out.fill(0.0);
                for &(ix, v) in entries {
                    let ix = ix as usize;
                    if ix >= out.len() {
                        return Err(corrupt("sparse plane index out of range"));
                    }
                    out[ix] = v;
                }
            }
        }
        if !self.applied[plane.seq - 1] {
            self.applied[plane.seq - 1] = true;
            // min() keeps the bound monotone even if frames land out of
            // the canonical order after a replay.
            self.progressive_bound = self.progressive_bound.min(plane.bound_after);
        }
        Ok(())
    }

    /// Largest absolute per-coefficient error of the current partial
    /// pyramid versus the **exact** decomposition: the server-side
    /// degradation bound plus the progressive truncation/codec bound.
    pub fn bound(&self) -> f64 {
        self.header.base_error_bound + self.progressive_bound
    }

    /// Detail planes applied so far.
    pub fn planes_received(&self) -> usize {
        self.applied.iter().filter(|a| **a).count()
    }

    /// Whether every detail plane has arrived.
    pub fn complete(&self) -> bool {
        self.applied.iter().all(|a| *a)
    }

    /// The serving metadata carried by the header frame.
    pub fn header(&self) -> &ProgressiveHeader {
        &self.header
    }

    /// Finish the reassembly into a [`DecomposeResponse`]. Partial
    /// reassemblies read missing planes as zero; `error_bound` is
    /// [`Reassembler::bound`] and `degraded` reflects any nonzero
    /// bound, whether server-side or progressive.
    pub fn into_response(self) -> DecomposeResponse {
        let error_bound = self.bound();
        DecomposeResponse {
            pyramid: self.pyramid,
            cache_hit: self.header.cache_hit,
            batch_size: self.header.batch_size,
            wait_s: self.header.wait_s,
            service_s: self.header.service_s,
            degraded: self.header.degraded || error_bound > 0.0,
            error_bound,
        }
    }
}

/// Max-abs difference between two pyramids of identical geometry
/// (useful for asserting delivered error bounds in tests/benches).
pub fn pyramid_max_abs_diff(a: &Pyramid, b: &Pyramid) -> Option<f64> {
    let mut worst = a.approx.max_abs_diff(&b.approx)?;
    if a.detail.len() != b.detail.len() {
        return None;
    }
    for (sa, sb) in a.detail.iter().zip(&b.detail) {
        for (ma, mb) in [(&sa.lh, &sb.lh), (&sa.hl, &sb.hl), (&sa.hh, &sb.hh)] {
            worst = worst.max(ma.max_abs_diff(mb)?);
        }
    }
    Some(worst)
}

/// Total wire payload bytes of a plane sequence plus its header — the
/// progressive cost the ledger compares against monolithic shipping.
pub fn sequence_payload_bytes(
    header: &ProgressiveHeader,
    planes: &[ProgressivePlane],
) -> Result<usize, WireError> {
    let mut total = crate::wire::encode_progressive_header(0, header)?
        .payload
        .len();
    for (i, p) in planes.iter().enumerate() {
        total += crate::wire::encode_progressive_plane(0, p, i + 1 < planes.len())?
            .payload
            .len();
    }
    Ok(total)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dwt::engine::DwtPlan;
    use dwt::{Boundary, FilterBank, Matrix};

    fn exact_response(rows: usize, cols: usize, levels: usize) -> DecomposeResponse {
        let img = Matrix::from_fn(rows, cols, |r, c| {
            ((r * 31 + c * 17) % 23) as f64 - 11.0 + if (r + c) % 5 == 0 { 0.25 } else { 0.0 }
        });
        let plan = DwtPlan::new(rows, cols, FilterBank::cdf97(), levels, Boundary::Periodic)
            .expect("plan");
        let pyramid = plan.decompose(&img).expect("decompose");
        DecomposeResponse {
            pyramid,
            cache_hit: false,
            batch_size: 1,
            wait_s: 0.0,
            service_s: 0.001,
            degraded: false,
            error_bound: 0.0,
        }
    }

    #[test]
    fn lossless_reassembly_is_bitwise_identical() {
        let resp = exact_response(16, 16, 3);
        let (header, planes) = split_response(&resp, CheckpointCodec::Raw).unwrap();
        assert_eq!(planes.len(), 9);
        let mut r = Reassembler::new(header).unwrap();
        for p in &planes {
            r.apply(p).unwrap();
        }
        assert!(r.complete());
        assert_eq!(r.bound(), 0.0);
        let got = r.into_response();
        assert_eq!(got.pyramid, resp.pyramid, "bitwise-equal pyramids");
        assert!(!got.degraded);
    }

    #[test]
    fn a_nan_coefficient_makes_the_bound_nan_not_finite() {
        let mut resp = exact_response(16, 16, 2);
        resp.pyramid.detail[1].hl.data_mut()[3] = f64::NAN;
        let (header, _) = split_response(&resp, CheckpointCodec::Raw).unwrap();
        assert!(header.bound_after.is_nan(), "{}", header.bound_after);
        let r = Reassembler::new(header).unwrap();
        assert!(r.bound().is_nan(), "a partial bound over NaN must be NaN");
    }

    #[test]
    fn overflowing_finite_input_never_reports_a_finite_bound() {
        // Finite pixels near f64::MAX overflow inside the transform.
        let img = Matrix::from_fn(16, 16, |r, c| if (r + c) % 2 == 0 { 1e308 } else { -1e308 });
        let plan = DwtPlan::new(16, 16, FilterBank::cdf97(), 2, Boundary::Periodic).unwrap();
        let resp = DecomposeResponse {
            pyramid: plan.decompose(&img).unwrap(),
            ..exact_response(16, 16, 2)
        };
        let mut overflowed = false;
        resp.pyramid
            .for_each_coeff(|v| overflowed |= !v.is_finite());
        assert!(overflowed, "the fixture must overflow");
        let (header, _) = split_response(&resp, CheckpointCodec::Raw).unwrap();
        assert!(!header.bound_after.is_finite(), "{}", header.bound_after);
    }

    #[test]
    fn bounds_are_monotone_and_honest() {
        let resp = exact_response(32, 32, 2);
        let codec = CheckpointCodec::WaveletQuant {
            threshold: 0.05,
            step: 0.1,
        };
        let (header, planes) = split_response(&resp, codec).unwrap();
        let mut r = Reassembler::new(header).unwrap();
        let mut prev = r.bound();
        for p in &planes {
            r.apply(p).unwrap();
            let now = r.bound();
            assert!(now <= prev, "bound rose from {prev} to {now}");
            prev = now;
            // Honesty: the partial pyramid is within the reported bound
            // of the exact decomposition at every step.
            let partial = r.clone().into_response();
            let diff = pyramid_max_abs_diff(&partial.pyramid, &resp.pyramid).unwrap();
            assert!(
                diff <= now + 1e-12,
                "actual error {diff} exceeds reported bound {now}"
            );
        }
        assert!(r.complete());
        assert!((r.bound() - codec.tolerance()).abs() < 1e-15);
    }

    #[test]
    fn duplicate_planes_are_idempotent() {
        let resp = exact_response(8, 8, 1);
        let (header, planes) = split_response(&resp, CheckpointCodec::Raw).unwrap();
        let mut r = Reassembler::new(header.clone()).unwrap();
        for p in &planes {
            r.apply(p).unwrap();
        }
        let bound = r.bound();
        let snapshot = r.clone().into_response();
        for p in &planes {
            r.apply(p).unwrap(); // full replay
        }
        assert_eq!(r.bound(), bound);
        assert_eq!(r.into_response().pyramid, snapshot.pyramid);
    }

    #[test]
    fn planes_stream_highest_energy_first() {
        let resp = exact_response(32, 32, 3);
        let (_, planes) = split_response(&resp, CheckpointCodec::Raw).unwrap();
        let energy = |p: &ProgressivePlane| match &p.coeffs {
            PlaneCoeffs::Dense(d) => d.iter().map(|v| v * v).sum::<f64>(),
            PlaneCoeffs::Sparse(s) => s.iter().map(|(_, v)| v * v).sum::<f64>(),
        };
        for w in planes.windows(2) {
            assert!(
                energy(&w[0]) >= energy(&w[1]),
                "plane {} outranks plane {}",
                w[1].seq,
                w[0].seq
            );
        }
    }

    #[test]
    fn lossy_split_shrinks_wire_bytes() {
        let resp = exact_response(32, 32, 2);
        let (lossless_h, lossless_p) = split_response(&resp, CheckpointCodec::Raw).unwrap();
        let codec = CheckpointCodec::WaveletQuant {
            threshold: 2.0,
            step: 0.5,
        };
        let (lossy_h, lossy_p) = split_response(&resp, codec).unwrap();
        let full = sequence_payload_bytes(&lossless_h, &lossless_p).unwrap();
        let lossy = sequence_payload_bytes(&lossy_h, &lossy_p).unwrap();
        assert!(
            lossy < full,
            "quantized sequence ({lossy} B) should undercut lossless ({full} B)"
        );
    }

    #[test]
    fn invalid_codec_is_rejected() {
        let resp = exact_response(8, 8, 1);
        let bad = CheckpointCodec::WaveletQuant {
            threshold: f64::NAN,
            step: 0.0,
        };
        assert!(split_response(&resp, bad).is_err());
    }
}
