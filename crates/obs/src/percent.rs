//! `%XX` decoding: the admin server's query values and a page key's parts.
//!
//! `cacheportal-web` compiles this file in by `#[path]` to read its keys
//! back, so it uses nothing but `std`.

fn hex_val(b: u8) -> Option<u8> {
    match b {
        b'0'..=b'9' => Some(b - b'0'),
        b'a'..=b'f' => Some(b - b'a' + 10),
        b'A'..=b'F' => Some(b - b'A' + 10),
        _ => None,
    }
}

/// Decode every `%XX` escape (either case) into its byte; any other byte,
/// a `%` without two hex digits after it included, is itself. Bytes that
/// are not UTF-8 once decoded are replaced, as `String::from_utf8_lossy`
/// does.
pub(crate) fn percent_decode(s: &str) -> String {
    let bytes = s.as_bytes();
    let mut out = Vec::with_capacity(bytes.len());
    let mut i = 0;
    while i < bytes.len() {
        let escaped = match bytes[i..] {
            [b'%', hi, lo, ..] => hex_val(hi).zip(hex_val(lo)),
            _ => None,
        };
        match escaped {
            Some((hi, lo)) => {
                out.push(hi * 16 + lo);
                i += 3;
            }
            None => {
                out.push(bytes[i]);
                i += 1;
            }
        }
    }
    String::from_utf8_lossy(&out).into_owned()
}
