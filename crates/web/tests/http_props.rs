//! Property tests for the HTTP substrate: page-key canonicalization is
//! permutation-invariant and injective over key parameters, and
//! cache-control directives round-trip through their header encoding.

use cacheportal_web::{CacheControl, HttpRequest, PageKey, ServletSpec};
use proptest::prelude::*;

fn param_strategy() -> impl Strategy<Value = (String, String)> {
    ("[a-z]{1,6}", "[a-zA-Z0-9]{0,8}").prop_map(|(k, v)| (k, v))
}

fn build_request(params: &[(String, String)]) -> HttpRequest {
    let refs: Vec<(&str, &str)> = params
        .iter()
        .map(|(k, v)| (k.as_str(), v.as_str()))
        .collect();
    HttpRequest::get("host", "/page", &refs)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Permuting GET parameters never changes the page key.
    #[test]
    fn page_key_is_permutation_invariant(
        params in prop::collection::vec(param_strategy(), 0..6),
        rotate in 0usize..6,
    ) {
        // Deduplicate names: repeated parameters are out of scope for keys.
        let mut seen = std::collections::HashSet::new();
        let params: Vec<_> = params
            .into_iter()
            .filter(|(k, _)| seen.insert(k.clone()))
            .collect();
        let names: Vec<&str> = params.iter().map(|(k, _)| k.as_str()).collect();
        let spec = ServletSpec::new("page").with_key_get_params(&names);

        let mut permuted = params.clone();
        let n = permuted.len();
        if n > 0 {
            permuted.rotate_left(rotate % n);
        }
        let k1 = PageKey::for_request(&build_request(&params), &spec);
        let k2 = PageKey::for_request(&build_request(&permuted), &spec);
        prop_assert_eq!(k1, k2);
    }

    /// Changing the value of any key parameter changes the key; changing a
    /// non-key parameter does not.
    #[test]
    fn page_key_depends_exactly_on_key_params(
        value_a in "[a-z]{1,6}",
        value_b in "[a-z]{1,6}",
        noise_a in "[a-z]{1,6}",
        noise_b in "[a-z]{1,6}",
    ) {
        let spec = ServletSpec::new("page").with_key_get_params(&["key"]);
        let with = |key: &str, noise: &str| {
            PageKey::for_request(
                &HttpRequest::get("host", "/page", &[("key", key), ("noise", noise)]),
                &spec,
            )
        };
        prop_assert_eq!(with(&value_a, &noise_a), with(&value_a, &noise_b));
        if value_a != value_b {
            prop_assert_ne!(with(&value_a, &noise_a), with(&value_b, &noise_a));
        }
    }

    /// Cache-control header encoding round-trips for arbitrary owners.
    #[test]
    fn cache_control_round_trips(owner in "[a-zA-Z0-9._-]{1,16}") {
        let cc = CacheControl::PrivateOwner(owner.clone().into());
        prop_assert_eq!(CacheControl::parse(&cc.header_value()), Some(cc.clone()));
        prop_assert!(cc.cacheable_by(&owner));
        prop_assert!(!cc.cacheable_by("someone-else"));
    }
}
