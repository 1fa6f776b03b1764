//! Typed simulation options.
//!
//! [`SimOptions`] gathers tracing and WMMA latency profiling into one
//! builder consumed by [`crate::Gpu::new`] — the sole way to configure
//! these (the transitional `Gpu` setters were removed once every caller
//! migrated).
//! A plain [`GpuConfig`] converts into default options, so existing
//! `Gpu::new(GpuConfig::titan_v())` call sites keep working unchanged.
//!
//! # Example
//!
//! ```
//! use tcsim_sim::{Gpu, GpuConfig, SimOptions};
//! use tcsim_trace::RingTracer;
//!
//! // Defaults: no tracing, no WMMA profiling.
//! let gpu = Gpu::new(GpuConfig::mini());
//! assert!(!gpu.tracer().enabled());
//!
//! // Everything explicit:
//! let gpu = Gpu::new(
//!     SimOptions::new(GpuConfig::mini())
//!         .profile_wmma(true)
//!         .tracer(RingTracer::new()),
//! );
//! assert!(gpu.tracer().enabled());
//! ```

use crate::config::GpuConfig;
use tcsim_trace::Tracer;

/// Builder-style options for constructing a [`crate::Gpu`].
///
/// See the module-level example. Obtain one with [`SimOptions::new`] or
/// via `From<GpuConfig>`.
pub struct SimOptions {
    pub(crate) cfg: GpuConfig,
    pub(crate) profile_wmma: bool,
    pub(crate) tracer: Option<Box<dyn Tracer>>,
}

impl SimOptions {
    /// Default options for `cfg`: tracing disabled, WMMA profiling off.
    pub fn new(cfg: GpuConfig) -> SimOptions {
        SimOptions {
            cfg,
            profile_wmma: false,
            tracer: None,
        }
    }

    /// Enables per-WMMA-instruction latency profiling (Fig 15/16).
    pub fn profile_wmma(mut self, on: bool) -> SimOptions {
        self.profile_wmma = on;
        self
    }

    /// Installs an event tracer; launches record into it. Pass a
    /// [`tcsim_trace::RingTracer`] to capture events.
    pub fn tracer(mut self, tracer: impl Tracer + 'static) -> SimOptions {
        self.tracer = Some(Box::new(tracer));
        self
    }
}

impl From<GpuConfig> for SimOptions {
    fn from(cfg: GpuConfig) -> SimOptions {
        SimOptions::new(cfg)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn config_converts_to_default_options() {
        let opts: SimOptions = GpuConfig::mini().into();
        assert!(!opts.profile_wmma);
        assert!(opts.tracer.is_none());
        assert_eq!(opts.cfg.num_sms, GpuConfig::mini().num_sms);
    }

    #[test]
    fn builder_methods_compose() {
        let opts = SimOptions::new(GpuConfig::mini())
            .profile_wmma(true)
            .tracer(tcsim_trace::RingTracer::new());
        assert!(opts.profile_wmma);
        assert!(opts.tracer.is_some());
    }
}
