#![warn(missing_docs)]

//! FHE application workloads for the MAD reproduction: the programs
//! behind Figure 6 (HELR logistic-regression training and ResNet-20 CKKS
//! inference, each one `simfhe::program::Program` priced by
//! `CostModel::program_cost`), the encrypted HELR step as one program with
//! its plaintext reference, and a synthetic dataset of the HELR task's
//! shape.

pub mod datasets;
pub mod figure6;
pub mod helr_enc;
pub mod lr;
pub mod resnet;

pub use datasets::{synthetic_mnist_like, BinaryDataset};
pub use figure6::{design_bars, figure6_groups, figure6_program, price, Fig6Bar, Fig6Workload};
pub use helr_enc::{helr_step_program, plain_lr_step};
pub use lr::{helr_training_program, HelrShape};
pub use resnet::{resnet20_layers, resnet20_program, ConvLayer};
