//! `rts_coordd` — the fleet-coordinator daemon.
//!
//! Speaks line JSON on stdin/stdout. Control verbs are handled here;
//! any other line carrying a `tenant` field is routed verbatim to the
//! tenant's placed daemon and the daemon's answer relayed back:
//!
//! ```json
//! {"op":"join","member":"d0","addr":"127.0.0.1:4100"}
//! {"op":"standby","member":"s0","addr":"127.0.0.1:4900"}
//! {"op":"leave","member":"d0"}
//! {"op":"failover","member":"d0"}
//! {"op":"recover","tenant":7}
//! {"op":"placements"}
//! {"op":"arrival","tenant":7,"passive_ms":100,"t_max_ms":5000}   // routed
//! ```
//!
//! `join`/`leave` rebalance immediately (export → import → evict over
//! the fleet); `failover` adopts the dead member's tenants on the
//! standby — tenants whose adoption fails are quarantined, so routing
//! for them errors until `recover` declares their data restored (see
//! `rts_coord::Coordinator::mark_recovered`). Every answer is one JSON
//! line; rebalance/failover answers carry the move list and any
//! per-tenant errors. Blank lines are skipped. Exit: stdin EOF.
//!
//! The daemon takes no arguments: any argument exits with status 2 and
//! the usage line.

use std::io::{self, BufRead, Write};
use std::net::SocketAddr;

use rts_adapt::client::RetryPolicy;
use rts_adapt::json::{self, Json};
use rts_coord::{Coordinator, FailoverReport, RebalanceReport};

fn escape(out: &mut String, text: &str) {
    json::write_escaped(out, text);
}

fn render_rebalance(report: &RebalanceReport) -> String {
    let mut out = String::from("{\"verdict\":\"rebalanced\",\"moved\":[");
    for (i, mv) in report.moved.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!("{{\"tenant\":{},\"from\":", mv.tenant));
        escape(&mut out, &mv.from);
        out.push_str(",\"to\":");
        escape(&mut out, &mv.to);
        out.push('}');
    }
    out.push_str("],\"errors\":[");
    for (i, e) in report.errors.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        escape(&mut out, e);
    }
    out.push_str("]}");
    out
}

fn render_failover(report: &FailoverReport) -> String {
    let mut out = String::from("{\"verdict\":\"failed_over\",\"adopted\":[");
    for (i, t) in report.adopted.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&t.to_string());
    }
    out.push_str("],\"errors\":[");
    for (i, e) in report.errors.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        escape(&mut out, e);
    }
    out.push_str("]}");
    out
}

fn error_line(reason: &str) -> String {
    let mut out = String::from("{\"verdict\":\"error\",\"reason\":");
    escape(&mut out, reason);
    out.push('}');
    out
}

fn member_and_addr(value: &Json) -> Result<(String, Option<SocketAddr>), String> {
    let member = value
        .get("member")
        .and_then(Json::as_str)
        .ok_or("missing string field \"member\"")?
        .to_string();
    let addr = match value.get("addr").and_then(Json::as_str) {
        Some(text) => Some(text.parse().map_err(|e| format!("bad addr: {e}"))?),
        None => None,
    };
    Ok((member, addr))
}

fn handle_line(coordinator: &mut Coordinator, line: &str) -> String {
    let value = match json::parse(line) {
        Ok(v) => v,
        Err(e) => return error_line(&e),
    };
    let op = value.get("op").and_then(Json::as_str).unwrap_or("");
    match op {
        "join" => match member_and_addr(&value) {
            Ok((member, Some(addr))) => render_rebalance(&coordinator.add_member(member, addr)),
            Ok((_, None)) => error_line("join needs an \"addr\""),
            Err(e) => error_line(&e),
        },
        "standby" => match member_and_addr(&value) {
            Ok((member, Some(addr))) => {
                coordinator.set_standby(member, addr);
                "{\"verdict\":\"standby_set\"}".to_string()
            }
            Ok((_, None)) => error_line("standby needs an \"addr\""),
            Err(e) => error_line(&e),
        },
        "leave" => match member_and_addr(&value) {
            Ok((member, _)) => render_rebalance(&coordinator.remove_member(&member)),
            Err(e) => error_line(&e),
        },
        "failover" => match member_and_addr(&value) {
            Ok((member, _)) => render_failover(&coordinator.fail_over(&member)),
            Err(e) => error_line(&e),
        },
        "recover" => match value.get("tenant").and_then(Json::as_u64) {
            Some(tenant) => {
                if coordinator.mark_recovered(tenant) {
                    format!("{{\"verdict\":\"recovered\",\"tenant\":{tenant}}}")
                } else {
                    error_line(&format!("tenant {tenant} is not quarantined"))
                }
            }
            None => error_line("recover needs a \"tenant\""),
        },
        "placements" => {
            let mut out = String::from("{\"verdict\":\"placements\",\"tenants\":{");
            for (i, (tenant, member)) in coordinator.placements().iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                out.push_str(&format!("\"{tenant}\":"));
                escape(&mut out, member);
            }
            out.push_str("}}");
            out
        }
        _ => match value.get("tenant").and_then(Json::as_u64) {
            Some(tenant) => coordinator
                .route(tenant, line)
                .unwrap_or_else(|e| error_line(&format!("routing failed: {e}"))),
            None => error_line(&format!(
                "unknown control op \"{op}\" (and no tenant to route by)"
            )),
        },
    }
}

const USAGE: &str = "usage: rts_coordd  (no arguments; line JSON on stdin, answers on stdout)";

fn main() {
    if let Some(arg) = std::env::args().nth(1) {
        eprintln!("rts_coordd: unknown argument {arg:?}\n{USAGE}");
        std::process::exit(2);
    }
    let mut coordinator = Coordinator::new(RetryPolicy::default());
    let stdin = io::stdin().lock();
    let mut stdout = io::stdout().lock();
    for line in stdin.lines() {
        let line = match line {
            Ok(line) => line,
            Err(_) => break,
        };
        if line.trim().is_empty() {
            continue;
        }
        let answer = handle_line(&mut coordinator, &line);
        if writeln!(stdout, "{answer}")
            .and_then(|()| stdout.flush())
            .is_err()
        {
            break;
        }
    }
    eprintln!(
        "rts_coordd: exiting with {} tenants placed across {} members",
        coordinator.placements().len(),
        coordinator.members().len()
    );
}
