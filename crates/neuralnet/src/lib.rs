//! # stca-neuralnet
//!
//! A small from-scratch neural-network library implementing the CNN
//! baseline of Figures 5 and 6. The paper trained a PyTorch CNN (tuned with
//! TUNE/PipeTune) that maps runtime conditions and counter traces directly
//! to response time, and found it both less accurate than the EA+queueing
//! pipeline (26% vs 11% median error) and far less *stable* than deep
//! forests under retraining (Figure 5). Reproducing those comparisons
//! requires a real gradient-trained network whose accuracy varies with
//! random initialization — exactly what this crate provides:
//!
//! * [`net::ConvNet`] — single-channel 2-D convolution over the counter
//!   trace, ReLU, flatten, concatenation with scalar features, two dense
//!   layers, dropout, MSE loss, SGD-with-momentum training;
//! * [`tune::random_search`] — the random hyperparameter search standing in
//!   for TUNE (epochs, batch size, learning rate, hidden width, drop rate).

pub mod net;
pub mod tune;

pub use net::{ConvNet, NetConfig};
pub use tune::{random_search, SearchSpace, TrialResult};
