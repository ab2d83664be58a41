//! Figure-reproduction harness for the paper's evaluation (Section 6).
//!
//! Each function in [`figures`] regenerates one figure of the paper: it runs
//! the corresponding experiment over the synthetic SWISS-PROT-style workload
//! and returns the series the figure plots. The `figures` binary prints the
//! series as aligned tables and writes CSV plus JSON documents. The
//! Criterion benches of this crate measure layers no figure does: the
//! engine (`micro_reconcile`, `ablation_modes`) and the store's publish
//! path (`micro_publish`).
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
    fig08_transaction_size, fig09_recon_interval_ratio, fig10_recon_interval_time,
    fig11_participants_ratio, fig12_participants_time, Fig08Row, Fig09Row, Fig10Row, Fig11Row,
    Fig12Row, FigureScale,
};
pub use output::{render_table, write_csv, write_json};
