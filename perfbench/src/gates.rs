//! Correctness gates. Each returns `Err` with a reason; any failure makes
//! the benchmark report `"correct": false` and exit non-zero.

/// FNV-1a over 64-bit words, byte-wise little-endian: the same digest the
/// serving report's `answers:` line uses.
#[derive(Debug, Clone, Copy)]
pub struct Fnv(pub u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    /// Folds one word into the digest.
    pub fn eat(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x100_0000_01b3);
        }
    }
}

/// Digest of a loss trail's bit patterns.
pub fn trail_digest(trail: &[f32]) -> u64 {
    let mut h = Fnv::default();
    for l in trail {
        h.eat(l.to_bits() as u64);
    }
    h.0
}

/// Digest of `(index, node, class)` answers, equal to the serving
/// report's `answer_digest` for the same answers in the same order.
pub fn answer_digest(answers: &[(usize, u32, u32)]) -> u64 {
    let mut h = Fnv::default();
    for &(i, node, class) in answers {
        h.eat(i as u64);
        h.eat(node as u64);
        h.eat(class as u64);
    }
    h.0
}

/// Parses the `trail <i> <hex bits> <loss>` lines of a golden file.
pub fn golden_trail(text: &str) -> Result<Vec<u32>, String> {
    text.lines()
        .filter(|l| l.starts_with("trail"))
        .map(|l| {
            let hex = l
                .split_whitespace()
                .nth(2)
                .ok_or_else(|| format!("golden line without bits: `{l}`"))?;
            u32::from_str_radix(hex, 16).map_err(|e| format!("golden bits `{hex}`: {e}"))
        })
        .collect()
}

/// The first losses of `trail` must carry exactly the golden bits.
pub fn check_golden(trail: &[f32], golden: &[u32]) -> Result<(), String> {
    if golden.is_empty() {
        return Err("golden trail is empty".into());
    }
    if trail.len() < golden.len() {
        return Err(format!(
            "trail has {} losses, golden needs {}",
            trail.len(),
            golden.len()
        ));
    }
    for (i, (l, &g)) in trail.iter().zip(golden).enumerate() {
        if l.to_bits() != g {
            return Err(format!(
                "loss {i} is {:08x} ({l}), golden is {g:08x}",
                l.to_bits()
            ));
        }
    }
    Ok(())
}

/// Two loss trails must be bitwise equal, loss for loss.
pub fn check_same_bits(what: &str, a: &[f32], b: &[f32]) -> Result<(), String> {
    if a.len() != b.len() {
        return Err(format!("{what}: {} vs {} losses", a.len(), b.len()));
    }
    match a
        .iter()
        .zip(b)
        .position(|(x, y)| x.to_bits() != y.to_bits())
    {
        Some(i) => Err(format!(
            "{what}: loss {i} differs: {:08x} vs {:08x}",
            a[i].to_bits(),
            b[i].to_bits()
        )),
        None => Ok(()),
    }
}

/// Every loss must be finite.
pub fn check_finite(trail: &[f32]) -> Result<(), String> {
    match trail.iter().position(|l| !l.is_finite()) {
        Some(i) => Err(format!("loss {i} is {}", trail[i])),
        None => Ok(()),
    }
}

/// Two answer digests must be equal.
pub fn check_digest(what: &str, a: u64, b: u64) -> Result<(), String> {
    if a == b {
        Ok(())
    } else {
        Err(format!("{what}: {a:016x} vs {b:016x}"))
    }
}

/// Replayed `(index, node, class)` answers must equal the report's.
pub fn check_answers(
    report: &[(usize, u32, u32)],
    replayed: &[(usize, u32, u32)],
) -> Result<(), String> {
    if report.len() != replayed.len() {
        return Err(format!(
            "replay answered {} requests, report {}",
            replayed.len(),
            report.len()
        ));
    }
    match report.iter().zip(replayed).position(|(a, b)| a != b) {
        Some(i) => Err(format!(
            "answer {i}: report {:?}, replay {:?}",
            report[i], replayed[i]
        )),
        None => Ok(()),
    }
}

/// Every offered request is completed, shed or missed: none unexplained.
pub fn check_accounting(
    offered: usize,
    completed: usize,
    shed: usize,
    missed: usize,
) -> Result<(), String> {
    if offered == completed + shed + missed {
        Ok(())
    } else {
        Err(format!(
            "offered {offered} != completed {completed} + shed {shed} + missed {missed}"
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const GOLDEN: &str = include_str!("../../tests/golden/cora_epochs2_bits.txt");

    fn golden_losses() -> Vec<f32> {
        golden_trail(GOLDEN)
            .unwrap()
            .into_iter()
            .map(f32::from_bits)
            .collect()
    }

    #[test]
    fn golden_gate_passes_on_golden_and_fails_on_corruption() {
        let golden = golden_trail(GOLDEN).unwrap();
        assert_eq!(golden.len(), 6);
        let mut trail = golden_losses();
        trail.push(1.0); // longer trails are checked on their prefix
        check_golden(&trail, &golden).unwrap();
        trail[4] = f32::from_bits(trail[4].to_bits() ^ 1);
        assert!(check_golden(&trail, &golden).is_err());
        assert!(check_golden(&golden_losses()[..5], &golden).is_err());
        assert!(check_golden(&golden_losses(), &[]).is_err());
        assert!(golden_trail("trail 0 zz 1.0").is_err());
    }

    #[test]
    fn bitwise_trail_gate_fails_on_one_flipped_bit() {
        let a = golden_losses();
        check_same_bits("replica", &a, &a.clone()).unwrap();
        let mut b = a.clone();
        b[2] = f32::from_bits(b[2].to_bits() ^ 1);
        assert!(check_same_bits("replica", &a, &b).is_err());
        assert!(check_same_bits("replica", &a, &a[..3]).is_err());
    }

    #[test]
    fn finite_gate_fails_on_nan_and_inf() {
        check_finite(&golden_losses()).unwrap();
        assert!(check_finite(&[0.5, f32::NAN]).is_err());
        assert!(check_finite(&[f32::INFINITY]).is_err());
    }

    #[test]
    fn answer_gates_fail_on_corrupted_answers() {
        let a = vec![(0usize, 7u32, 1u32), (1, 9, 2)];
        let d = answer_digest(&a);
        check_digest("answers", d, answer_digest(&a.clone())).unwrap();
        check_answers(&a, &a.clone()).unwrap();
        let mut b = a.clone();
        b[1].2 = 3;
        assert!(check_digest("answers", d, answer_digest(&b)).is_err());
        assert!(check_answers(&a, &b).is_err());
        assert!(check_answers(&a, &a[..1]).is_err());
    }

    #[test]
    fn accounting_gate_fails_on_an_unexplained_request() {
        check_accounting(10, 7, 2, 1).unwrap();
        assert!(check_accounting(10, 7, 2, 0).is_err());
    }

    #[test]
    fn trail_digest_sees_every_bit() {
        let a = golden_losses();
        let mut b = a.clone();
        b[0] = f32::from_bits(b[0].to_bits() ^ 1);
        assert_ne!(trail_digest(&a), trail_digest(&b));
    }
}
