//! The pinned Small-scale figure goldens (`goldens/mod.rs`) with
//! telemetry off.

mod goldens;

#[test]
fn small_scale_figures_are_pinned() {
    goldens::assert_small_scale_figures_are_pinned();
}
