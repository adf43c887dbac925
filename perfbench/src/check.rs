//! Functional check of a winning configuration: run it on the
//! interpreter and compare with the application's independent CPU
//! reference, bit for bit. A change that makes a search "faster" by
//! breaking code generation fails here.
//!
//! The winner runs on each application's small test problem (the one
//! the repository's functional suite uses; SAD keeps the tuned search
//! window): the configuration is the search's pick, and the reference
//! check is as strict as on the tuned problem size at a fraction of the
//! interpreter time.

use gpu_ir::linear::linearize;
use gpu_kernels::cp::Cp;
use gpu_kernels::matmul::{MatMul, MatMulFine};
use gpu_kernels::mri_fhd::MriFhd;
use gpu_kernels::sad::Sad;
use gpu_sim::run_kernel_checked;
use optspace::space::Point;

/// Run the configuration `point` of application `app` on input data
/// drawn from `seed` and compare it with the CPU reference.
pub fn functional(app: &str, point: &Point, seed: u64) -> Result<(), String> {
    let (got, want) = match app {
        "matmul" => {
            let mm = MatMul::test_problem();
            let (mem0, params) = mm.setup(seed);
            let mut mem = mem0.clone();
            (mm.run_config(&MatMul::config_of(point), &mut mem, &params), mm.cpu_reference(&mem0))
        }
        "cp" => {
            let cp = Cp::test_problem();
            let (mem0, params) = cp.setup(seed);
            let mut mem = mem0.clone();
            (cp.run_config(&Cp::config_of(point), &mut mem, &params), cp.cpu_reference(&mem0))
        }
        "sad" => {
            // The test problem's frame with the paper's 32x32 search
            // window: position unrolling is legal only for factors that
            // divide the window's trip count, so the window must match
            // the tuned one.
            let sad = Sad::new(48, 16, 32);
            let (mem0, params) = sad.setup(seed);
            let mut mem = mem0.clone();
            (sad.run_config(&Sad::config_of(point), &mut mem, &params), sad.cpu_reference(&mem0))
        }
        "mri" => {
            let mri = MriFhd::test_problem();
            let (mem0, params) = mri.setup(seed);
            let mut mem = mem0.clone();
            (mri.run_config(&MriFhd::config_of(point), &mut mem, &params), mri.cpu_reference(&mem0))
        }
        "matmul-fine" => {
            // The fine grid has no `run_config` of its own; this is
            // `MatMul::run_config` with the fine generator. The test
            // problem is below the grid's 512 minimum, which only
            // matters for block shapes wider than the matrix, and the
            // winners' shapes fit.
            let fine = MatMulFine { base: MatMul::test_problem() };
            let cfg = MatMulFine::config_of(point);
            let (mem0, params) = fine.base.setup(seed);
            let mut mem = mem0.clone();
            let prog = linearize(&fine.generate(&cfg));
            let n2 = (fine.base.n * fine.base.n) as usize;
            let got = run_kernel_checked(&prog, &fine.launch(&cfg), &params, &mut mem)
                .map(|()| mem.global[2 * n2..3 * n2].to_vec());
            (got, fine.base.cpu_reference(&mem0))
        }
        other => return Err(format!("no functional check for app `{other}`")),
    };
    let got = got.map_err(|e| format!("{app} {point}: interpreter fault: {e}"))?;
    if got == want {
        Ok(())
    } else {
        let diffs = got.iter().zip(&want).filter(|(a, b)| a.to_bits() != b.to_bits()).count();
        Err(format!(
            "{app} {point}: {diffs} of {} outputs differ from the CPU reference",
            want.len()
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_kernels::App;

    fn point(app: &dyn App, label: &str) -> Point {
        app.space().points().find(|p| p.to_string() == label).expect("label exists")
    }

    #[test]
    fn known_winners_match_the_reference() {
        let fine = MatMulFine::reduced_problem();
        let label = "16x16/1x4/uC/o16/pf";
        functional("matmul-fine", &point(&fine, label), 1).expect(label);
        for (app, space, label) in [
            ("matmul", MatMul::reduced_problem().space(), "16x16/1x4/uC/pf"),
            ("cp", Cp::paper_problem().space(), "b64/t16/co"),
            ("sad", Sad::paper_problem().space(), "tpb64/mb2/p4r4c4"),
            ("mri", MriFhd::paper_problem().space(), "b64/u16/inv1"),
        ] {
            let p = space.points().find(|p| p.to_string() == label).expect("label exists");
            functional(app, &p, 1).expect(label);
        }
        let mm = MatMul::reduced_problem();
        assert!(functional("no-such-app", &point(&mm, "16x16/1x4/uC/pf"), 1).is_err());
    }
}
