//! ERC-1167 minimal-proxy detection, used for dataset deduplication.
//!
//! Minimal proxies are byte-identical delegation shims that differ only in
//! the 20-byte implementation address. Etherscan-derived corpora are full
//! of them; the ScamDetect roadmap (§V-A) calls for removing such
//! duplicates so a detector cannot inflate accuracy by memorising one
//! implementation cloned thousands of times.

/// The canonical ERC-1167 runtime prefix (10 bytes, before the address).
const ERC1167_PREFIX: [u8; 10] = [0x36, 0x3d, 0x3d, 0x37, 0x3d, 0x3d, 0x3d, 0x36, 0x3d, 0x73];

/// The canonical ERC-1167 runtime suffix (15 bytes, after the address).
const ERC1167_SUFFIX: [u8; 15] = [
    0x5a, 0xf4, 0x3d, 0x82, 0x80, 0x3e, 0x90, 0x3d, 0x91, 0x60, 0x2b, 0x57, 0xfd, 0x5b, 0xf3,
];

/// Vanity-address variants (EIP-1167 allows shorter `PUSHn` for addresses
/// with leading zero bytes): prefix ends with `PUSHn` (`0x73 - k`) and the
/// address is `20 - k` bytes, `k ≤ 19`. We match `k ∈ 0..=2` which covers
/// everything seen in practice.
fn prefix_with_push(k: u8) -> [u8; 10] {
    let mut p = ERC1167_PREFIX;
    p[9] = 0x73 - k;
    p
}

/// Classification of a contract's proxy nature.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProxyKind {
    /// Not recognised as a minimal proxy.
    NotProxy,
    /// ERC-1167 minimal proxy delegating to the contained implementation
    /// address (left-padded to 20 bytes for the vanity variants).
    Erc1167 {
        /// The implementation address the proxy delegates every call to.
        implementation: [u8; 20],
    },
}

/// Detects whether `runtime_code` is an ERC-1167 minimal proxy.
///
/// # Examples
///
/// ```
/// use scamdetect_evm::proxy::{detect_proxy, make_erc1167, ProxyKind};
///
/// let implementation = [0xabu8; 20];
/// let proxy = make_erc1167(&implementation);
/// assert_eq!(detect_proxy(&proxy), ProxyKind::Erc1167 { implementation });
/// assert_eq!(detect_proxy(&[0x60, 0x00]), ProxyKind::NotProxy);
/// ```
pub fn detect_proxy(runtime_code: &[u8]) -> ProxyKind {
    for k in 0u8..=2 {
        let addr_len = 20 - k as usize;
        let expected_len = 10 + addr_len + 15;
        if runtime_code.len() != expected_len {
            continue;
        }
        let prefix = prefix_with_push(k);
        if runtime_code[..10] != prefix {
            continue;
        }
        if runtime_code[10 + addr_len..] != ERC1167_SUFFIX {
            continue;
        }
        let mut implementation = [0u8; 20];
        implementation[20 - addr_len..].copy_from_slice(&runtime_code[10..10 + addr_len]);
        return ProxyKind::Erc1167 { implementation };
    }
    ProxyKind::NotProxy
}

/// Builds the canonical 45-byte ERC-1167 runtime for `implementation` —
/// used by tests and by the dataset generator to inject realistic
/// duplicates.
pub fn make_erc1167(implementation: &[u8; 20]) -> Vec<u8> {
    let mut code = Vec::with_capacity(45);
    code.extend_from_slice(&ERC1167_PREFIX);
    code.extend_from_slice(implementation);
    code.extend_from_slice(&ERC1167_SUFFIX);
    code
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// The FNV-1a offset basis — the seed for [`fnv1a_extend`] chains.
pub const FNV1A_OFFSET_BASIS: u64 = FNV_OFFSET;

/// Folds `bytes` into a running FNV-1a hash, so multi-part inputs
/// (e.g. a section name followed by its payload) hash without
/// concatenation. Seed the chain with [`FNV1A_OFFSET_BASIS`].
pub fn fnv1a_extend(mut hash: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(FNV_PRIME);
    }
    hash
}

/// FNV-1a over raw bytes — the shared fingerprint primitive behind
/// [`skeleton_hash`], the WASM dedup keys in the dataset and scanner,
/// and the model-artifact section checksums.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    fnv1a_extend(FNV_OFFSET, bytes)
}

/// A cheap structural fingerprint for near-duplicate detection: the FNV-1a
/// hash of the opcode-byte sequence with every push *immediate* masked out.
/// Contracts that differ only in embedded constants (addresses, amounts,
/// selectors) collide — which is exactly what dedup wants.
pub fn skeleton_hash(code: &[u8]) -> u64 {
    let mut h = FNV_OFFSET;
    let mut fold = |b: u8| {
        h ^= u64::from(b);
        h = h.wrapping_mul(FNV_PRIME);
    };
    for (_, byte, imm_len) in crate::disasm::sweep(code) {
        fold(byte);
        // Immediates are masked: only their width contributes.
        fold(imm_len as u8);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn canonical_proxy_roundtrip() {
        let addr: [u8; 20] = std::array::from_fn(|i| i as u8);
        let code = make_erc1167(&addr);
        assert_eq!(code.len(), 45);
        assert_eq!(
            detect_proxy(&code),
            ProxyKind::Erc1167 {
                implementation: addr
            }
        );
    }

    #[test]
    fn vanity_variant_with_shorter_push() {
        // PUSH19 variant: address with one leading zero byte.
        let addr_19 = [0x11u8; 19];
        let mut code = Vec::new();
        code.extend_from_slice(&prefix_with_push(1));
        code.extend_from_slice(&addr_19);
        code.extend_from_slice(&ERC1167_SUFFIX);
        match detect_proxy(&code) {
            ProxyKind::Erc1167 { implementation } => {
                assert_eq!(implementation[0], 0);
                assert_eq!(&implementation[1..], &addr_19[..]);
            }
            other => panic!("expected proxy, got {other:?}"),
        }
    }

    #[test]
    fn corrupted_suffix_rejected() {
        let mut code = make_erc1167(&[0xaa; 20]);
        *code.last_mut().unwrap() = 0x00;
        assert_eq!(detect_proxy(&code), ProxyKind::NotProxy);
    }

    #[test]
    fn wrong_length_rejected() {
        let mut code = make_erc1167(&[0xaa; 20]);
        code.push(0x00);
        assert_eq!(detect_proxy(&code), ProxyKind::NotProxy);
    }

    #[test]
    fn skeleton_hash_ignores_immediates() {
        // Same shape, different constants.
        let a = [0x60, 0x11, 0x60, 0x22, 0x01, 0x00];
        let b = [0x60, 0x33, 0x60, 0x44, 0x01, 0x00];
        assert_eq!(skeleton_hash(&a), skeleton_hash(&b));
        // Different shape.
        let c = [0x60, 0x11, 0x60, 0x22, 0x02, 0x00];
        assert_ne!(skeleton_hash(&a), skeleton_hash(&c));
    }

    #[test]
    fn proxies_to_same_impl_share_code_but_not_with_other_impls() {
        let p1 = make_erc1167(&[0x01; 20]);
        let p2 = make_erc1167(&[0x02; 20]);
        assert_ne!(p1, p2);
        // Skeletons match: the proxy family is one equivalence class.
        assert_eq!(skeleton_hash(&p1), skeleton_hash(&p2));
    }
}
