"""Committed mutants of qfam: each is one textual fault that tier-1 must catch.

MUTANTS holds one dict an entry: module (a path from the repository root),
old (text that occurs exactly once in the module), new (its replacement),
weakens (the check the fault weakens) and killed_by (a tier-1 test that
fails under it; tier-1 with -x may stop at an earlier one, which run.py
reports). Run them with ``python3 mutants/run.py``.
"""

MUTANTS = [
    dict(
        module="src/qfam/morphisms.py",
        old="for x in (*first, *second) if isinstance(x, StarMorphism)):",
        new="for x in first if isinstance(x, StarMorphism)):",
        weakens="the lift-difference kernel's index-path predicate reads the first side only",
        killed_by="tests/test_semigroups.py::test_the_dense_path_peaks_within_one_slab[qs]",
    ),
    dict(
        module="src/qfam/morphisms.py",
        old="second[2].monomial, slice(s.start * k2, s.stop * k2)",
        new="second[2].monomial, slice(s.start * k1, s.stop * k1)",
        weakens="the kernel's index path slices the second lift's rows by the first's step",
        killed_by="tests/test_cli.py::test_a_cyclic_group_of_order_90_is_saved_as_its_table",
    ),
    dict(
        module="src/qfam/morphisms.py",
        old="lift_monomial(*second[:2], second[2].monomial,",
        new="lift_monomial(*second[:2], first[2].monomial,",
        weakens="the kernel's index path lifts the first side's source on both sides",
        killed_by="tests/test_families.py::test_factorization_certificate",
    ),
    dict(
        module="src/qfam/morphisms.py",
        old="worst = np.maximum(worst, monomial_defect(",
        new="worst = np.fmax(worst, monomial_defect(",
        weakens="the kernel's index path drops a NaN slab defect",
        killed_by="tests/test_monomial.py::test_slabs_give_the_whole_lifts_defect",
    ),
    dict(
        module="src/qfam/morphisms.py",
        old="worst = np.maximum(worst, max_image_defect(product, diff))",
        new="worst = np.fmax(worst, max_image_defect(product, diff))",
        weakens="the kernel's dense path drops a NaN slab defect",
        killed_by=(
            "tests/test_monomial.py"
            "::test_a_nan_comultiplication_takes_the_dense_path_and_fails"
        ),
    ),
    dict(
        module="src/qfam/morphisms.py",
        old="        if not self.codomain.is_commutative:\n            return None\n",
        new="",
        weakens="StarMorphism.monomial admits a codomain that is not commutative",
        killed_by="tests/test_acceptance.py::test_12_podles_density",
    ),
    dict(
        module="src/qfam/linalg.py",
        old="kept = s >= RANK_CUT * top",
        new="kept = s >= 1e3 * RANK_CUT * top",
        weakens="spectrum_rank, the one rank cut, drops singular values 1e3 times too high",
        killed_by="tests/test_linalg.py::test_rank_and_nullity_share_the_cut",
    ),
    dict(
        module="src/qfam/morphisms.py",
        old=(
            '@np.errstate(over="ignore", invalid="ignore")'
            "  # inf * 0 is a NaN coordinate, as in lift_monomial\n"
        ),
        new="",
        weakens="a dense lift of an infinite entry raises a RuntimeWarning instead of reading NaN",
        killed_by="tests/test_morphisms.py::test_an_infinite_entry_reads_nan_not_a_warning[counit]",
    ),
    dict(
        module="src/qfam/morphisms.py",
        old='@np.errstate(over="ignore", invalid="ignore")  # inf - inf is a NaN defect\n',
        new="",
        weakens="the kernel's dense difference of two infinite lifts raises instead of reading NaN",
        killed_by=(
            "tests/test_morphisms.py"
            "::test_an_infinite_entry_reads_nan_not_a_warning[coassociativity-inf-inf]"
        ),
    ),
    dict(
        module="src/qfam/families.py",
        old='@np.errstate(over="ignore", invalid="ignore")  # inf - inf is a NaN defect\n',
        new="",
        weakens="commutation_defect of two infinite compositions raises instead of reading NaN",
        killed_by=(
            "tests/test_morphisms.py"
            "::test_an_infinite_entry_reads_nan_not_a_warning[commutation-inf-inf]"
        ),
    ),
    dict(
        module="src/qfam/semigroups.py",
        old="return float(np.maximum(left, right))",
        new="return float(left)",
        weakens="counit_defect's gather reads the law (eps (x) id) Delta = id only",
        killed_by=(
            "tests/test_cross_paths.py"
            "::test_each_counit_law_reads_the_same_on_both_paths[table0]"
        ),
    ),
    dict(
        module="src/qfam/semigroups.py",
        old="np.hstack([left, right])",
        new="left",
        weakens="counit_defect's dense lifts read the law (eps (x) id) Delta = id only",
        killed_by=(
            "tests/test_cross_paths.py"
            "::test_each_counit_law_reads_the_same_on_both_paths[table0]"
        ),
    ),
    dict(
        module="src/qfam/morphisms.py",
        old="        out_coefs *= v\n",
        new="",
        weakens="lift_monomial drops the second factor's coefficients",
        killed_by="tests/test_monomial.py::test_lift_monomial_densifies_to_lift",
    ),
    dict(
        module="src/qfam/morphisms.py",
        old="return float(np.maximum(worst, largest_abs(v2[moved])))",
        new="return float(worst)",
        weakens="monomial_defect ignores the -b entry of a moved row",
        killed_by=(
            "tests/test_monomial.py"
            "::test_a_nan_coefficient_reads_nan_as_in_max_image_defect[first3-second3]"
        ),
    ),
    dict(
        module="src/qfam/morphisms.py",
        old="(slice(s, min(s + step, count)) for s in range(0, count, step))",
        new="(slice(s, min(s + step, count - 1)) for s in range(0, count, step))",
        weakens="every slab loop drops its last item",
        killed_by="tests/test_acceptance.py::test_01_composition_associativity",
    ),
    dict(
        module="src/qfam/morphisms.py",
        old="coefs = coefs if coefs.imag.any() else coefs.real.copy()",
        new="coefs = coefs.real.copy()",
        weakens="StarMorphism.monomial drops the imaginary parts of a form with phases",
        killed_by="tests/test_monomial.py::test_a_form_with_phases_stays_complex",
    ),
    dict(
        module="src/qfam/morphisms.py",
        old="mat[hit, cols[hit]] = coefs[hit]",
        new="mat[hit, cols[hit]] = 1.0",
        weakens="a matrix built from a monomial form writes 1.0 in place of its coefficients",
        killed_by="tests/test_monomial.py::test_real_forms_answer_as_their_complex_casts",
    ),
    dict(
        module="src/qfam/algebra.py",
        old="return float(np.abs(z).max(initial=0.0))",
        new="return float(np.nanmax(np.abs(z), initial=0.0))",
        weakens="largest_abs drops a NaN of a real array",
        killed_by="tests/test_monomial.py::test_inf_minus_inf_reads_nan_in_either_dtype[float64]",
    ),
    dict(
        module="src/qfam/morphisms.py",
        old=(
            "        require_bytes_fit(16 * shape[0] * shape[1], "
            'f"the matrix of a {shape[0]} x {shape[1]} map")\n'
        ),
        new="",
        weakens="a matrix built from a monomial form is not counted against the cap",
        killed_by=(
            "tests/test_address_space.py"
            "::test_check_counit_admits_order_420_whose_matrix_is_refused"
        ),
    ),
    dict(
        module="src/qfam/families.py",
        old=(
            '@np.errstate(over="ignore", invalid="ignore")'
            "  # inf * 0 is a NaN coordinate, as in lift\n"
        ),
        new="",
        weakens="the invariance generators of an infinite functional raise instead of reading NaN",
        killed_by=(
            "tests/test_morphisms.py"
            "::test_an_infinite_entry_reads_nan_not_a_warning[invariance-functional]"
        ),
    ),
]
