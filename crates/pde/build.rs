//! Build-time source-to-source generation: the Rust back-end of
//! `perforad-codegen` generates the static wave/Burgers kernels that
//! `tests/rows.rs` compares against the executors (the "compiled by icc"
//! path of the paper's setup).

use perforad_core::{ActivityMap, AdjointOptions};
use std::env;
use std::fs;
use std::path::Path;

fn main() {
    let out_dir = env::var("OUT_DIR").unwrap();

    // 3-D wave equation (Fig. 4 of the paper).
    let wave = perforad_pde_build::wave3d_nest();
    let act = ActivityMap::new()
        .with_suffixed("u")
        .with_suffixed("u_1")
        .with_suffixed("u_2");
    let adj = wave.adjoint(&act, &AdjointOptions::default()).unwrap();
    let mut code = perforad_codegen::print_module("wave3d_primal", std::slice::from_ref(&wave));
    code.push_str(&perforad_codegen::print_module(
        "wave3d_adjoint",
        &adj.nests,
    ));
    fs::write(Path::new(&out_dir).join("wave3d_gen.rs"), code).unwrap();

    // 1-D Burgers (Fig. 6).
    let burgers = perforad_pde_build::burgers_nest();
    let act = ActivityMap::new().with_suffixed("u").with_suffixed("u_1");
    let adj = burgers.adjoint(&act, &AdjointOptions::default()).unwrap();
    let mut code = perforad_codegen::print_module("burgers_primal", std::slice::from_ref(&burgers));
    code.push_str(&perforad_codegen::print_module(
        "burgers_adjoint",
        &adj.nests,
    ));
    fs::write(Path::new(&out_dir).join("burgers_gen.rs"), code).unwrap();

    println!("cargo:rerun-if-changed=build.rs");
}

/// Nest builders shared with the library (duplicated here because build
/// scripts cannot depend on the crate they build).
mod perforad_pde_build {
    use perforad_core::{make_loop_nest, LoopNest};
    use perforad_symbolic::{ix, Array, Expr, Idx, Symbol};

    pub fn wave3d_nest() -> LoopNest {
        let (i, j, k) = (Symbol::new("i"), Symbol::new("j"), Symbol::new("k"));
        let n = Symbol::new("n");
        let dd = Expr::sym(Symbol::new("D"));
        let c = Array::new("c");
        let u = Array::new("u");
        let u1 = Array::new("u_1");
        let u2 = Array::new("u_2");
        let u_xx =
            u1.at(ix![&i - 1, &j, &k]) - 2.0 * u1.at(ix![&i, &j, &k]) + u1.at(ix![&i + 1, &j, &k]);
        let u_yy =
            u1.at(ix![&i, &j - 1, &k]) - 2.0 * u1.at(ix![&i, &j, &k]) + u1.at(ix![&i, &j + 1, &k]);
        let u_zz =
            u1.at(ix![&i, &j, &k - 1]) - 2.0 * u1.at(ix![&i, &j, &k]) + u1.at(ix![&i, &j, &k + 1]);
        let expr = 2.0 * u1.at(ix![&i, &j, &k]) - u2.at(ix![&i, &j, &k])
            + c.at(ix![&i, &j, &k]) * dd * (u_xx + u_yy + u_zz);
        let b = (Idx::constant(1), Idx::sym(n.clone()) - 2);
        make_loop_nest(
            &u.at(ix![&i, &j, &k]),
            expr,
            vec![i.clone(), j.clone(), k.clone()],
            vec![b.clone(), b.clone(), b],
        )
        .unwrap()
    }

    pub fn burgers_nest() -> LoopNest {
        let i = Symbol::new("i");
        let n = Symbol::new("n");
        let cc = Expr::sym(Symbol::new("C"));
        let dd = Expr::sym(Symbol::new("D"));
        let u = Array::new("u");
        let u1 = Array::new("u_1");
        let ap = u1.at(ix![&i]).max(Expr::zero());
        let am = u1.at(ix![&i]).min(Expr::zero());
        let uxm = u1.at(ix![&i]) - u1.at(ix![&i - 1]);
        let uxp = u1.at(ix![&i + 1]) - u1.at(ix![&i]);
        let ux = ap * uxm + am * uxp;
        let expr = u1.at(ix![&i]) - cc * ux
            + dd * (u1.at(ix![&i + 1]) + u1.at(ix![&i - 1]) - 2.0 * u1.at(ix![&i]));
        make_loop_nest(
            &u.at(ix![&i]),
            expr,
            vec![i.clone()],
            vec![(Idx::constant(1), Idx::sym(n) - 2)],
        )
        .unwrap()
    }
}
