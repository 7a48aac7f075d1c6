//! # dlflow-num — exact arithmetic substrate
//!
//! Arbitrary-precision unsigned/signed integers and exact rationals,
//! written from scratch (no external bignum dependency is available in the
//! offline crate set). This crate exists because the milestone binary
//! search of Legrand–Su–Vivien (Theorem 2) returns the *exact* optimal
//! maximum weighted flow only if the underlying linear programs are solved
//! exactly; floating point would turn the claimed optimum into an
//! approximation.
//!
//! * [`UBig`] — unsigned magnitude: schoolbook/Karatsuba multiplication,
//!   Knuth Algorithm D division, binary GCD, decimal I/O.
//! * [`IBig`] — sign–magnitude signed integer.
//! * [`Rat`] — normalized rational; a total-order field.
//! * [`Scalar`] — the ordered-field trait shared by `f64` and [`Rat`],
//!   used by `dlflow-lp` and `dlflow-core` to stay generic over exact vs
//!   approximate arithmetic.
//!
//! ## Example
//!
//! ```
//! use dlflow_num::{Rat, Scalar};
//!
//! let third = Rat::from_ratio(1, 3);
//! let sum = third.add(&third).add(&third);
//! assert_eq!(sum, Rat::one()); // exact, unlike 0.1 + 0.2 in f64
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![allow(clippy::needless_range_loop)] // indexed loops over parallel limb arrays are clearer here
#![warn(
    clippy::cast_possible_truncation,
    clippy::cast_sign_loss,
    clippy::cast_possible_wrap
)]

pub mod ibig;
pub mod rational;
pub mod traits;
pub mod ubig;

pub use ibig::{IBig, Sign};
pub use rational::{ParseRatError, Rat};
pub use traits::Scalar;
pub use ubig::{ParseUBigError, UBig};
