//! The line-delimited request protocol: one request per line, one response
//! line per request (see the crate docs for the full grammar and response
//! semantics).

/// A parsed client request.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Request {
    /// Liveness probe; always answered `ok pong`.
    Ping,
    /// Stop the server after responding `ok bye`.
    Shutdown,
    /// List open session names.
    Sessions,
    /// Registry-level stats, or per-session stats when a name is given.
    Stats {
        /// The session to report on (`None` = registry totals).
        session: Option<String>,
    },
    /// Open a session over a program.
    Open {
        /// Session name (no whitespace).
        session: String,
        /// `synth:<benchmark>` or a filesystem path (`.sf` source or
        /// `.sfbc` bytecode).
        source: String,
        /// `key=value` options: `steps=<n>` (per-batch step budget),
        /// `ms=<n>` (per-batch wall budget).
        opts: Vec<(String, String)>,
    },
    /// Queue roots for the session's next coalesced batch.
    Roots {
        /// Target session.
        session: String,
        /// Root specs: `Cls.m` labels or `#<id>` raw method indices.
        roots: Vec<String>,
    },
    /// Queue root retractions for the session's next coalesced batch — the
    /// non-monotone inverse of [`Request::Roots`]. The following epoch may
    /// cover fewer roots and reach fewer methods than its predecessor.
    Retract {
        /// Target session.
        session: String,
        /// Root specs: `Cls.m` labels or `#<id>` raw method indices.
        roots: Vec<String>,
    },
    /// Queue a method-body edit for the session's next coalesced batch.
    Edit {
        /// Target session.
        session: String,
        /// Method spec: `Cls.m` label or `#<id>` raw method index.
        method: String,
        /// The edit to apply.
        edit: skipflow_core::MethodEdit,
    },
    /// Wait until the session has no pending work; reports the settled epoch.
    Flush {
        /// Target session.
        session: String,
    },
    /// Trip the session's cancel token (in-flight batch checkpoints).
    Cancel {
        /// Target session.
        session: String,
    },
    /// Stop and drop the session.
    Evict {
        /// Target session.
        session: String,
    },
    /// A call-graph query against the session's last published epoch.
    Query {
        /// Target session.
        session: String,
        /// The query itself.
        query: Query,
    },
}

/// A call-graph query, answered from the published snapshot without
/// touching the solver.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Query {
    /// Whether the given method (`Cls.m` or `#<id>`) is reachable.
    Reachable(String),
    /// Number of reachable methods.
    ReachableCount,
    /// Total call edges.
    CallEdges,
    /// Virtual call sites with two or more targets.
    PolyCalls,
    /// The epoch's completeness tag.
    Completeness,
    /// The current publication epoch number.
    Epoch,
}

/// Parses one request line. Errors are human-readable fragments suitable
/// for an `err proto: ...` response.
pub fn parse_request(line: &str) -> Result<Request, String> {
    let mut words = line.split_whitespace();
    let verb = words.next().ok_or_else(|| "empty request".to_string())?;
    let rest: Vec<&str> = words.collect();
    let need = |n: usize, usage: &str| -> Result<(), String> {
        if rest.len() < n {
            Err(format!("usage: {usage}"))
        } else {
            Ok(())
        }
    };
    match verb {
        "ping" => Ok(Request::Ping),
        "shutdown" => Ok(Request::Shutdown),
        "sessions" => Ok(Request::Sessions),
        "stats" => Ok(Request::Stats { session: rest.first().map(|s| s.to_string()) }),
        "open" => {
            need(2, "open <session> <path|synth:NAME> [steps=N] [ms=N]")?;
            let mut opts = Vec::new();
            for w in &rest[2..] {
                match w.split_once('=') {
                    Some((k, v)) if !k.is_empty() && !v.is_empty() => {
                        opts.push((k.to_string(), v.to_string()));
                    }
                    _ => return Err(format!("malformed option `{w}` (expected key=value)")),
                }
            }
            Ok(Request::Open {
                session: rest[0].to_string(),
                source: rest[1].to_string(),
                opts,
            })
        }
        "roots" => {
            need(2, "roots <session> <Cls.m|#id>...")?;
            Ok(Request::Roots {
                session: rest[0].to_string(),
                roots: rest[1..].iter().map(|s| s.to_string()).collect(),
            })
        }
        "retract" => {
            need(2, "retract <session> <Cls.m|#id>...")?;
            Ok(Request::Retract {
                session: rest[0].to_string(),
                roots: rest[1..].iter().map(|s| s.to_string()).collect(),
            })
        }
        "edit" => {
            need(3, "edit <session> <Cls.m|#id> <disable|restore>")?;
            let edit = match rest[2] {
                "disable" => skipflow_core::MethodEdit::DisableBody,
                "restore" => skipflow_core::MethodEdit::RestoreBody,
                other => return Err(format!("unknown edit `{other}` (disable|restore)")),
            };
            Ok(Request::Edit {
                session: rest[0].to_string(),
                method: rest[1].to_string(),
                edit,
            })
        }
        "flush" => {
            need(1, "flush <session>")?;
            Ok(Request::Flush { session: rest[0].to_string() })
        }
        "cancel" => {
            need(1, "cancel <session>")?;
            Ok(Request::Cancel { session: rest[0].to_string() })
        }
        "evict" => {
            need(1, "evict <session>")?;
            Ok(Request::Evict { session: rest[0].to_string() })
        }
        "query" => {
            need(2, "query <session> <reachable M|reachable-count|call-edges|poly-calls|completeness|epoch>")?;
            let query = match rest[1] {
                "reachable" => {
                    need(3, "query <session> reachable <Cls.m|#id>")?;
                    Query::Reachable(rest[2].to_string())
                }
                "reachable-count" => Query::ReachableCount,
                "call-edges" => Query::CallEdges,
                "poly-calls" => Query::PolyCalls,
                "completeness" => Query::Completeness,
                "epoch" => Query::Epoch,
                other => return Err(format!("unknown query `{other}`")),
            };
            Ok(Request::Query { session: rest[0].to_string(), query })
        }
        other => Err(format!("unknown request `{other}`")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_full_grammar() {
        assert_eq!(parse_request("ping"), Ok(Request::Ping));
        assert_eq!(parse_request("  shutdown  "), Ok(Request::Shutdown));
        assert_eq!(parse_request("sessions"), Ok(Request::Sessions));
        assert_eq!(parse_request("stats"), Ok(Request::Stats { session: None }));
        assert_eq!(
            parse_request("stats s1"),
            Ok(Request::Stats { session: Some("s1".into()) })
        );
        assert_eq!(
            parse_request("open s1 synth:dacapo-avrora ms=20 steps=512"),
            Ok(Request::Open {
                session: "s1".into(),
                source: "synth:dacapo-avrora".into(),
                opts: vec![
                    ("ms".into(), "20".into()),
                    ("steps".into(), "512".into())
                ],
            })
        );
        assert_eq!(
            parse_request("roots s1 Main.main #7"),
            Ok(Request::Roots { session: "s1".into(), roots: vec!["Main.main".into(), "#7".into()] })
        );
        assert_eq!(
            parse_request("retract s1 Main.main #7"),
            Ok(Request::Retract {
                session: "s1".into(),
                roots: vec!["Main.main".into(), "#7".into()]
            })
        );
        assert_eq!(
            parse_request("edit s1 App.run disable"),
            Ok(Request::Edit {
                session: "s1".into(),
                method: "App.run".into(),
                edit: skipflow_core::MethodEdit::DisableBody,
            })
        );
        assert_eq!(
            parse_request("edit s1 #9 restore"),
            Ok(Request::Edit {
                session: "s1".into(),
                method: "#9".into(),
                edit: skipflow_core::MethodEdit::RestoreBody,
            })
        );
        assert_eq!(parse_request("flush s1"), Ok(Request::Flush { session: "s1".into() }));
        assert_eq!(parse_request("cancel s1"), Ok(Request::Cancel { session: "s1".into() }));
        assert_eq!(parse_request("evict s1"), Ok(Request::Evict { session: "s1".into() }));
        assert_eq!(
            parse_request("query s1 reachable App.run"),
            Ok(Request::Query { session: "s1".into(), query: Query::Reachable("App.run".into()) })
        );
        for (q, parsed) in [
            ("reachable-count", Query::ReachableCount),
            ("call-edges", Query::CallEdges),
            ("poly-calls", Query::PolyCalls),
            ("completeness", Query::Completeness),
            ("epoch", Query::Epoch),
        ] {
            assert_eq!(
                parse_request(&format!("query s1 {q}")),
                Ok(Request::Query { session: "s1".into(), query: parsed })
            );
        }
    }

    #[test]
    fn rejects_malformed_requests_with_usage_hints() {
        assert!(parse_request("").is_err());
        assert!(parse_request("bogus").unwrap_err().contains("unknown request"));
        assert!(parse_request("open s1").unwrap_err().contains("usage"));
        assert!(parse_request("open s1 x.sf badopt").unwrap_err().contains("key=value"));
        assert!(parse_request("roots s1").unwrap_err().contains("usage"));
        assert!(parse_request("retract s1").unwrap_err().contains("usage"));
        assert!(parse_request("edit s1 App.run").unwrap_err().contains("usage"));
        assert!(parse_request("edit s1 App.run delete").unwrap_err().contains("unknown edit"));
        assert!(parse_request("query s1 reachable").unwrap_err().contains("usage"));
        assert!(parse_request("query s1 nope").unwrap_err().contains("unknown query"));
    }
}
