//! The wire protocol of the storage algorithm (Figs. 5–7).

use crate::history::History;
use crate::value::{Timestamp, Value};
use core::fmt;
use rqs_core::QuorumId;
use std::collections::BTreeSet;

/// Messages exchanged between storage clients and servers.
///
/// The algorithm is round-based (§3.1): servers only ever send `*Ack`
/// messages, and only in response to a client message.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum StorageMsg {
    /// `wr⟨ts, v, QC'2, rnd⟩` — write (or write-back) of `⟨ts, v⟩` for
    /// round `rnd`, carrying class-2 quorum ids.
    Wr {
        /// Timestamp the writer attached to the value.
        ts: Timestamp,
        /// The value.
        val: Value,
        /// Class-2 quorum ids (`QC'2` — empty in rounds 1 and 3 of a
        /// write; the reader's `BCD(c,2,1)` set in a round-1 write-back).
        sets: BTreeSet<QuorumId>,
        /// Round slot `∈ {1, 2, 3}`.
        rnd: usize,
    },
    /// `wr_ack⟨ts, rnd⟩`.
    WrAck {
        /// Timestamp being acknowledged.
        ts: Timestamp,
        /// Round being acknowledged.
        rnd: usize,
    },
    /// `rd⟨read_no, read_rnd⟩`.
    Rd {
        /// Unique id of the read operation at this reader.
        read_no: u64,
        /// Read round number.
        rnd: usize,
    },
    /// `rd_ack⟨read_no, read_rnd, history_i⟩` — the server's entire history.
    RdAck {
        /// Echoed read id.
        read_no: u64,
        /// Echoed round.
        rnd: usize,
        /// The server's full history of the shared variable at the moment
        /// it answered. The paper's histories are unbounded (§5) and each
        /// read round makes every server re-report its whole history;
        /// [`History`] is a persistent value, so this is an O(1) snapshot
        /// that shares its chunks with the server's live copy and with
        /// every other ack.
        history: History,
    },
}

impl fmt::Display for StorageMsg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StorageMsg::Wr { ts, val, sets, rnd } => {
                write!(f, "wr⟨{ts},{val},|ids|={},{rnd}⟩", sets.len())
            }
            StorageMsg::WrAck { ts, rnd } => write!(f, "wr_ack⟨{ts},{rnd}⟩"),
            StorageMsg::Rd { read_no, rnd } => write!(f, "rd⟨{read_no},{rnd}⟩"),
            StorageMsg::RdAck { read_no, rnd, .. } => {
                write!(f, "rd_ack⟨{read_no},{rnd},history⟩")
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_compact() {
        let m = StorageMsg::Wr {
            ts: 3,
            val: Value::from(9u64),
            sets: BTreeSet::new(),
            rnd: 1,
        };
        assert_eq!(m.to_string(), "wr⟨3,9,|ids|=0,1⟩");
        let a = StorageMsg::WrAck { ts: 3, rnd: 1 };
        assert_eq!(a.to_string(), "wr_ack⟨3,1⟩");
        let r = StorageMsg::Rd { read_no: 1, rnd: 2 };
        assert_eq!(r.to_string(), "rd⟨1,2⟩");
        let ra = StorageMsg::RdAck {
            read_no: 1,
            rnd: 2,
            history: History::new(),
        };
        assert!(ra.to_string().contains("rd_ack"));
    }
}
