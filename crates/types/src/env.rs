//! Scale overrides read from the environment: the one parser of the
//! count variables (`REPLEND_RUNS`, `REPLEND_TICKS`) that the figure
//! binaries and the scenario runner share, so both refuse the same
//! values with the same message.

/// Reads the environment variable `var` as a count of at least 1:
/// `Ok(None)` when it is unset, and an error naming the variable when
/// it holds anything else.
pub fn env_count(var: &str) -> Result<Option<u64>, String> {
    let raw = std::env::var_os(var);
    parse_count(var, raw.as_ref().map(|v| v.to_string_lossy()).as_deref())
}

/// Parses the value `raw` of the environment variable `var` as a
/// count of at least 1; an unset variable (`None`) is `Ok(None)`.
pub fn parse_count(var: &str, raw: Option<&str>) -> Result<Option<u64>, String> {
    let Some(raw) = raw else {
        return Ok(None);
    };
    match raw.parse() {
        Ok(n) if n > 0 => Ok(Some(n)),
        _ => Err(format!("{var} must be a positive integer, got {raw:?}")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_count_takes_positive_integers_and_names_the_variable_otherwise() {
        assert_eq!(parse_count("REPLEND_RUNS", None), Ok(None));
        assert_eq!(parse_count("REPLEND_RUNS", Some("2")), Ok(Some(2)));
        assert_eq!(parse_count("REPLEND_TICKS", Some("5000")), Ok(Some(5000)));
        for bad in ["two", "0", "", "-1", "2.5", " 2"] {
            assert_eq!(
                parse_count("REPLEND_TICKS", Some(bad)),
                Err(format!(
                    "REPLEND_TICKS must be a positive integer, got {bad:?}"
                ))
            );
        }
    }
}
