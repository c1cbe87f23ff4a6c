//! Output checks shared by every workload.

use fvs_cluster::FrequencyCommand;
use fvs_model::FrequencySet;
use fvs_net::{decode_payload_binary, WireMsg, HEADER_LEN, MAGIC_V2};

/// Split a binary (`FVS2`) frame into its payload after checking the
/// magic and the length prefix.
pub fn binary_payload(frame: &[u8]) -> Result<&[u8], String> {
    if frame.len() < HEADER_LEN || frame[..4] != MAGIC_V2 {
        return Err("frame lacks the FVS2 magic".to_string());
    }
    let len = u32::from_be_bytes([frame[4], frame[5], frame[6], frame[7]]) as usize;
    if frame.len() != HEADER_LEN + len {
        return Err(format!(
            "frame length prefix {len} disagrees with {} payload bytes",
            frame.len() - HEADER_LEN
        ));
    }
    Ok(&frame[HEADER_LEN..])
}

/// Decode a binary frame and require that it equals `sent`.
pub fn check_round_trip(frame: &[u8], sent: &WireMsg) -> Result<(), String> {
    let payload = binary_payload(frame)?;
    let got = decode_payload_binary(payload)
        .map_err(|e| format!("{} frame failed to decode: {e}", sent.kind()))?;
    if &got != sent {
        return Err(format!(
            "{} frame decoded to a different message",
            sent.kind()
        ));
    }
    Ok(())
}

/// A ceiling is well formed: addressed to a node of the cluster, one
/// frequency per processor, every frequency from the machine's set.
pub fn check_ceiling(
    cmd: &FrequencyCommand,
    nodes: usize,
    procs: usize,
    set: &FrequencySet,
) -> Result<(), String> {
    if cmd.node >= nodes {
        return Err(format!(
            "ceiling for node {} of a {nodes}-node cluster",
            cmd.node
        ));
    }
    if cmd.freqs.len() != procs {
        return Err(format!(
            "ceiling for node {} has {} frequencies, node has {procs} processors",
            cmd.node,
            cmd.freqs.len()
        ));
    }
    if let Some(f) = cmd.freqs.iter().find(|f| !set.contains(**f)) {
        return Err(format!(
            "ceiling for node {} uses {} MHz, not in the p630 set",
            cmd.node, f.0
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use fvs_model::FreqMhz;

    #[test]
    fn off_set_frequency_fails_the_ceiling_check() {
        let set = FrequencySet::p630();
        let ok = FrequencyCommand {
            node: 0,
            freqs: vec![FreqMhz(250); 4],
        };
        assert!(check_ceiling(&ok, 1, 4, &set).is_ok());
        let off = FrequencyCommand {
            node: 0,
            freqs: vec![FreqMhz(251), FreqMhz(250), FreqMhz(250), FreqMhz(250)],
        };
        assert!(check_ceiling(&off, 1, 4, &set).is_err());
        assert!(check_ceiling(&ok, 1, 2, &set).is_err());
        assert!(check_ceiling(&ok, 0, 4, &set).is_err());
    }
}
