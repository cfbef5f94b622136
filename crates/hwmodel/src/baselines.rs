//! The prior-art comparison (Table IV): published figures of the five
//! baseline CNN accelerators the paper compares against, plus the derived
//! columns computed the same way for every row.

use crate::throughput::metrics;
use sia_accel::SiaConfig;
use std::fmt;

/// One row of Table IV.
#[derive(Clone, Debug, PartialEq)]
pub struct ComparisonRow {
    /// Citation tag ("\[18\]", … or "This work").
    pub paper: String,
    /// FPGA platform.
    pub platform: String,
    /// Processing-element count.
    pub pes: u64,
    /// Clock in MHz.
    pub clock_mhz: u64,
    /// Published throughput in GOPS.
    pub gops: f64,
    /// Published power in watts (None where the paper reported N/A).
    pub watts: Option<f64>,
    /// DSP slices used (None where not reported).
    pub dsps: Option<u64>,
    /// Whether the PE-efficiency column is meaningful for this row
    /// (Table IV prints N/A for \[22\], whose PE count is not comparable).
    pub pe_eff_reported: bool,
}

impl ComparisonRow {
    /// GOPS per PE (Table IV's "PE Eff." column); `None` where the paper
    /// prints N/A.
    #[must_use]
    pub fn gops_per_pe(&self) -> Option<f64> {
        self.pe_eff_reported.then(|| self.gops / self.pes as f64)
    }

    /// GOPS per DSP, when DSP usage was reported.
    #[must_use]
    pub fn gops_per_dsp(&self) -> Option<f64> {
        self.dsps.map(|d| self.gops / d as f64)
    }

    /// GOPS per watt, when power was reported.
    #[must_use]
    pub fn gops_per_watt(&self) -> Option<f64> {
        self.watts.map(|w| self.gops / w)
    }
}

impl fmt::Display for ComparisonRow {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:<10} {:<8} {:>5} PEs {:>4} MHz {:>7.1} GOPS {} {} {}",
            self.paper,
            self.platform,
            self.pes,
            self.clock_mhz,
            self.gops,
            self.gops_per_pe()
                .map_or("   N/A GOPS/PE".into(), |v| format!("{v:>6.3} GOPS/PE")),
            self.gops_per_dsp()
                .map_or("   N/A GOPS/DSP".into(), |v| format!("{v:>6.2} GOPS/DSP")),
            self.gops_per_watt()
                .map_or("   N/A GOPS/W".into(), |v| format!("{v:>6.2} GOPS/W")),
        )
    }
}

/// The five prior-art rows of Table IV, as published.
#[must_use]
pub fn baseline_rows() -> Vec<ComparisonRow> {
    vec![
        ComparisonRow {
            paper: "[18]".into(),
            platform: "ZC706".into(),
            pes: 576,
            clock_mhz: 200,
            gops: 198.1,
            watts: None,
            dsps: Some(576),
            pe_eff_reported: true,
        },
        ComparisonRow {
            paper: "[19]".into(),
            platform: "ZC706".into(),
            pes: 780,
            clock_mhz: 150,
            gops: 187.8,
            watts: Some(187.8 / 14.22),
            dsps: Some(780),
            pe_eff_reported: true,
        },
        ComparisonRow {
            paper: "[20]".into(),
            platform: "VC707".into(),
            pes: 64,
            clock_mhz: 200,
            gops: 12.5,
            watts: None,
            dsps: None,
            pe_eff_reported: true,
        },
        ComparisonRow {
            paper: "[21]".into(),
            platform: "VC709".into(),
            pes: 664,
            clock_mhz: 200,
            gops: 220.0,
            watts: Some(220.0 / 22.9),
            dsps: Some(664),
            pe_eff_reported: true,
        },
        ComparisonRow {
            paper: "[22]".into(),
            platform: "XC7Z020".into(),
            pes: 12,
            clock_mhz: 200,
            gops: 187.80,
            watts: Some(187.80 / 19.50),
            dsps: Some(400),
            pe_eff_reported: false, // Table IV prints N/A here
        },
    ]
}

/// The "This work" row, computed from the hardware models rather than
/// copied.
#[must_use]
pub fn this_work_row(config: &SiaConfig) -> ComparisonRow {
    let m = metrics(config);
    let power = crate::power::power_model(config).total_watts();
    let dsps = crate::resources::estimate(config).dsps;
    ComparisonRow {
        paper: "This work".into(),
        platform: "PYNQ-Z2".into(),
        pes: config.pe_count() as u64,
        clock_mhz: config.clock_hz / 1_000_000,
        gops: m.gops,
        watts: Some(power),
        dsps: Some(dsps),
        pe_eff_reported: true,
    }
}

/// The headline ratios of the abstract: PE-efficiency and DSP-efficiency
/// advantage of this work over the best prior-art row.
#[must_use]
pub fn headline_ratios(config: &SiaConfig) -> (f64, f64) {
    let ours = this_work_row(config);
    let best_pe = baseline_rows()
        .iter()
        .filter_map(ComparisonRow::gops_per_pe)
        .fold(0.0f64, f64::max);
    let best_dsp = baseline_rows()
        .iter()
        .filter_map(ComparisonRow::gops_per_dsp)
        .fold(0.0f64, f64::max);
    (
        ours.gops_per_pe().unwrap_or(0.0) / best_pe,
        ours.gops_per_dsp().unwrap_or(0.0) / best_dsp,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn derived_columns_match_table4() {
        let rows = baseline_rows();
        // [18]: 198.1/576 = 0.343 GOPS/PE, 0.34 GOPS/DSP
        assert!((rows[0].gops_per_pe().unwrap() - 0.343).abs() < 5e-3);
        assert!((rows[0].gops_per_dsp().unwrap() - 0.34).abs() < 5e-3);
        // [19]: 0.241 GOPS/PE, 14.22 GOPS/W, 0.24 GOPS/DSP
        assert!((rows[1].gops_per_pe().unwrap() - 0.241).abs() < 5e-3);
        assert!((rows[1].gops_per_watt().unwrap() - 14.22).abs() < 1e-6);
        // [20]: 0.195 GOPS/PE, no DSP/power data
        assert!((rows[2].gops_per_pe().unwrap() - 0.195).abs() < 5e-3);
        assert!(rows[2].gops_per_dsp().is_none());
        assert!(rows[2].gops_per_watt().is_none());
        // [21]: 0.331 GOPS/PE, 22.9 GOPS/W, 0.33 GOPS/DSP
        assert!((rows[3].gops_per_pe().unwrap() - 0.331).abs() < 5e-3);
        // [22]: PE Eff is N/A in Table IV; 0.46 GOPS/DSP, 19.5 GOPS/W
        assert!(rows[4].gops_per_pe().is_none());
        assert!((rows[4].gops_per_dsp().unwrap() - 0.47).abs() < 0.01);
    }

    #[test]
    fn this_work_matches_paper_columns() {
        let row = this_work_row(&SiaConfig::pynq_z2());
        assert_eq!(row.pes, 64);
        assert_eq!(row.clock_mhz, 100);
        assert!((row.gops - 38.4).abs() < 1e-6);
        assert!((row.gops_per_pe().unwrap() - 0.6).abs() < 1e-6);
        assert!((row.gops_per_dsp().unwrap() - 2.26).abs() < 0.02);
        assert!((row.gops_per_watt().unwrap() - 24.93).abs() < 0.15);
    }

    #[test]
    fn headline_ratios_hold() {
        // Abstract: 2× PE efficiency and 4.5× DSP efficiency over the
        // state of the art. Best prior PE eff is 0.343 ([18]) and best DSP
        // eff 0.47 ([22]): 0.6/0.343 ≈ 1.75 and 2.26/0.47 ≈ 4.8 — the
        // paper rounds to "2× and 4.5×".
        let (pe_ratio, dsp_ratio) = headline_ratios(&SiaConfig::pynq_z2());
        assert!((1.5..2.5).contains(&pe_ratio), "PE ratio {pe_ratio}");
        assert!((4.0..5.5).contains(&dsp_ratio), "DSP ratio {dsp_ratio}");
    }

    #[test]
    fn this_work_has_fewest_dsps() {
        let ours = this_work_row(&SiaConfig::pynq_z2()).dsps.unwrap();
        for row in baseline_rows() {
            if let Some(d) = row.dsps {
                assert!(ours < d, "{} uses fewer DSPs than us", row.paper);
            }
        }
    }

    #[test]
    fn display_renders_na_cleanly() {
        let s = baseline_rows()[2].to_string();
        assert!(s.contains("N/A"));
    }
}
