"""Evaluation renderers: every table and figure of the paper's
experimental section, read from one campaign document
(:mod:`repro.evaluation.report`)."""
