"""Exact comparison of sliced vs Menger-sponge 3D substrate geometries:
closed-form volumes, surfaces and coolant efficiencies over arbitrary
precision rationals, an independent voxel oracle, reference-table
reproduction, efficiency-crossover analysis, and mesh export."""

__version__ = "0.1.0"
