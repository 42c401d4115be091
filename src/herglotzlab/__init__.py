"""Numerical workbench for holomorphic functions of positive real part on
the complex unit ball: truncated series arithmetic, weighted coefficient
pairings, operator Herglotz transforms, Fock-space norm experiments, PSD
kernel membership tests, and Hardy-scale growth profiling."""

__version__ = "0.1.0"
