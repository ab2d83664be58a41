//! Figure-reproduction harness for the paper's evaluation (Section 6).
//!
//! Each function in [`figures`] regenerates one figure of the paper: it runs
//! the corresponding experiment over the synthetic SWISS-PROT-style workload
//! and returns the series the figure plots. The `figures` binary prints the
//! series as aligned tables and writes CSV plus JSON documents. Figure 3's
//! trade-off between client-centric and network-centric reconciliation is a
//! row per mode: the messages and virtual network time each charges, and the
//! decisions both reach. Where a run's wall clock goes is for the library's
//! own spans to say (`trace_dump` over the `engine_trace` example).
//!
//! Absolute numbers differ from the paper (different decade, language,
//! hardware, and a simulated network), but the qualitative shapes are the
//! point: how the state ratio responds to transaction size, reconciliation
//! interval and confederation size, and how store time compares between the
//! centralised and the DHT-based store.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod figures;
pub mod output;

pub use figures::{
    fig03_reconciliation_modes, fig08_transaction_size, fig09_recon_interval_ratio,
    fig10_recon_interval_time, fig11_participants_ratio, fig12_participants_time, Fig03Row,
    Fig08Row, Fig09Row, Fig10Row, Fig11Row, Fig12Row, FigureScale,
};
pub use output::{render_table, write_csv, write_json};
