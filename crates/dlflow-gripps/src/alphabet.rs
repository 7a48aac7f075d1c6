//! The 20-letter amino-acid alphabet and background frequencies.

/// The 20 standard amino acids, one-letter codes, in a fixed order.
pub const AMINO_ACIDS: [u8; 20] = [
    b'A', b'C', b'D', b'E', b'F', b'G', b'H', b'I', b'K', b'L', b'M', b'N', b'P', b'Q', b'R', b'S',
    b'T', b'V', b'W', b'Y',
];

/// Approximate natural abundance of each amino acid (UniProt-like), in the
/// order of [`AMINO_ACIDS`]. Sums to ~1; used to synthesize realistic
/// sequence composition so motif hit-rates resemble real databank scans.
pub const BACKGROUND_FREQ: [f64; 20] = [
    0.0826, 0.0137, 0.0546, 0.0675, 0.0386, 0.0708, 0.0227, 0.0593, 0.0582, 0.0965, 0.0241, 0.0406,
    0.0472, 0.0393, 0.0553, 0.0660, 0.0535, 0.0687, 0.0110, 0.0292,
];

/// Index of a one-letter code in [`AMINO_ACIDS`], or `None` for non-residues.
pub(crate) fn index_of(code: u8) -> Option<usize> {
    AMINO_ACIDS
        .iter()
        .position(|&c| c == code.to_ascii_uppercase())
}

/// `true` iff `code` is a standard amino-acid one-letter code.
pub(crate) fn is_residue(code: u8) -> bool {
    index_of(code).is_some()
}

/// Cumulative distribution over [`BACKGROUND_FREQ`] for inverse-CDF sampling.
pub(crate) fn background_cdf() -> [f64; 20] {
    let mut cdf = [0.0f64; 20];
    let mut acc = 0.0;
    for (i, f) in BACKGROUND_FREQ.iter().enumerate() {
        acc += f;
        cdf[i] = acc;
    }
    // Normalize the tail so sampling never falls off the end.
    cdf[19] = 1.0;
    cdf
}

/// Samples a residue index from the background distribution given a
/// uniform `u ∈ [0, 1)`.
pub(crate) fn sample_residue(cdf: &[f64; 20], u: f64) -> u8 {
    let idx = cdf.partition_point(|&c| c < u).min(19);
    AMINO_ACIDS[idx]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alphabet_is_consistent() {
        assert_eq!(AMINO_ACIDS.len(), 20);
        assert_eq!(BACKGROUND_FREQ.len(), 20);
        for (i, &c) in AMINO_ACIDS.iter().enumerate() {
            assert_eq!(index_of(c), Some(i));
        }
        assert_eq!(index_of(b'a'), Some(0)); // case-insensitive
        assert_eq!(index_of(b'B'), None); // ambiguity codes excluded
        assert_eq!(index_of(b'X'), None);
        assert!(is_residue(b'W'));
        assert!(!is_residue(b'-'));
    }

    #[test]
    fn frequencies_sum_to_one() {
        let sum: f64 = BACKGROUND_FREQ.iter().sum();
        assert!((sum - 1.0).abs() < 0.01, "sum = {sum}");
    }

    #[test]
    fn cdf_is_monotone_and_normalized() {
        let cdf = background_cdf();
        for w in cdf.windows(2) {
            assert!(w[0] <= w[1]);
        }
        assert_eq!(cdf[19], 1.0);
    }

    #[test]
    fn sampling_covers_extremes() {
        let cdf = background_cdf();
        assert_eq!(sample_residue(&cdf, 0.0), b'A');
        assert!(is_residue(sample_residue(&cdf, 0.9999)));
        assert!(is_residue(sample_residue(&cdf, 0.5)));
    }
}
