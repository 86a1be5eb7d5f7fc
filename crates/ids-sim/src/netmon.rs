//! Network packet monitoring — the Bro/Snort row of Table 1.
//!
//! A lightweight rule-matching packet monitor over a synthetic traffic
//! stream: packets carry a 5-tuple-ish header plus payload bytes; rules
//! match on port plus a payload byte pattern (Snort's content rules,
//! minus the full protocol decoders). Detection latency composes with
//! the scan-progress model exactly like the filesystem checker: one
//! monitor job drains the capture ring accumulated since its last run.

use rand::Rng;

/// One captured packet.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Packet {
    /// Source port.
    pub src_port: u16,
    /// Destination port.
    pub dst_port: u16,
    /// Payload bytes.
    pub payload: Vec<u8>,
}

impl Packet {
    /// Creates a benign packet with random ephemeral ports and payload.
    pub fn benign<R: Rng + ?Sized>(size: usize, rng: &mut R) -> Self {
        let mut payload = vec![0u8; size];
        rng.fill(&mut payload[..]);
        // Avoid accidentally embedding the attack marker.
        for w in 0..payload.len().saturating_sub(3) {
            if &payload[w..w + 4] == b"PWN!" {
                payload[w] = 0;
            }
        }
        Packet {
            src_port: rng.gen_range(32_768..61_000),
            dst_port: rng.gen_range(1..1024),
            payload,
        }
    }

    /// Creates the attack packet the default rule set catches: a
    /// shell-spawn marker aimed at the telemetry port.
    #[must_use]
    pub fn exploit() -> Self {
        Packet {
            src_port: 31_337,
            dst_port: 5555,
            payload: b"GET / PWN!\x90\x90\x90/bin/sh".to_vec(),
        }
    }
}

/// A detection rule: destination port plus payload content.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Rule {
    /// Rule name (shows up in alerts).
    pub name: String,
    /// Destination port to match, or `None` for any.
    pub dst_port: Option<u16>,
    /// Byte pattern that must occur in the payload.
    pub content: Vec<u8>,
}

impl Rule {
    /// Does this rule match the packet?
    #[must_use]
    pub fn matches(&self, packet: &Packet) -> bool {
        if let Some(port) = self.dst_port {
            if packet.dst_port != port {
                return false;
            }
        }
        packet
            .payload
            .windows(self.content.len().max(1))
            .any(|w| w == self.content.as_slice())
    }
}

/// An alert raised by the monitor.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Alert {
    /// The matching rule's name.
    pub rule: String,
    /// Index of the offending packet in the drained batch.
    pub packet_index: usize,
}

/// The packet monitor: a rule set over a capture ring.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct PacketMonitor {
    rules: Vec<Rule>,
}

impl PacketMonitor {
    /// A monitor with the default rover rule set (one shell-spawn rule).
    #[must_use]
    pub fn with_default_rules() -> Self {
        PacketMonitor {
            rules: vec![Rule {
                name: "shell-spawn-marker".into(),
                dst_port: Some(5555),
                content: b"PWN!".to_vec(),
            }],
        }
    }

    /// A monitor with custom rules.
    #[must_use]
    pub fn new(rules: Vec<Rule>) -> Self {
        PacketMonitor { rules }
    }

    /// Inspects one batch of captured packets, returning all alerts.
    /// One simulator job of the monitor task corresponds to one batch
    /// (the ring accumulated since its previous job).
    #[must_use]
    pub fn inspect(&self, batch: &[Packet]) -> Vec<Alert> {
        let mut alerts = Vec::new();
        for (i, packet) in batch.iter().enumerate() {
            for rule in &self.rules {
                if rule.matches(packet) {
                    alerts.push(Alert {
                        rule: rule.name.clone(),
                        packet_index: i,
                    });
                }
            }
        }
        alerts
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn benign_traffic_raises_no_alerts() {
        let mut rng = StdRng::seed_from_u64(8);
        let monitor = PacketMonitor::with_default_rules();
        let batch: Vec<Packet> = (0..200).map(|_| Packet::benign(128, &mut rng)).collect();
        assert!(monitor.inspect(&batch).is_empty());
    }

    #[test]
    fn exploit_packet_is_flagged_with_position() {
        let mut rng = StdRng::seed_from_u64(9);
        let monitor = PacketMonitor::with_default_rules();
        let mut batch: Vec<Packet> = (0..10).map(|_| Packet::benign(64, &mut rng)).collect();
        batch.insert(7, Packet::exploit());
        let alerts = monitor.inspect(&batch);
        assert_eq!(alerts.len(), 1);
        assert_eq!(alerts[0].packet_index, 7);
        assert_eq!(alerts[0].rule, "shell-spawn-marker");
    }

    #[test]
    fn port_constraint_is_honored() {
        let rule = Rule {
            name: "r".into(),
            dst_port: Some(80),
            content: b"xyz".to_vec(),
        };
        let mut p = Packet::exploit();
        p.payload = b"aaxyzbb".to_vec();
        p.dst_port = 81;
        assert!(!rule.matches(&p));
        p.dst_port = 80;
        assert!(rule.matches(&p));
    }

    #[test]
    fn portless_rule_matches_any_port() {
        let rule = Rule {
            name: "any".into(),
            dst_port: None,
            content: b"PWN!".to_vec(),
        };
        assert!(rule.matches(&Packet::exploit()));
    }

    #[test]
    fn multiple_rules_can_fire_on_one_packet() {
        let monitor = PacketMonitor::new(vec![
            Rule {
                name: "a".into(),
                dst_port: None,
                content: b"PWN".to_vec(),
            },
            Rule {
                name: "b".into(),
                dst_port: Some(5555),
                content: b"/bin/sh".to_vec(),
            },
        ]);
        let alerts = monitor.inspect(&[Packet::exploit()]);
        assert_eq!(alerts.len(), 2);
    }
}
