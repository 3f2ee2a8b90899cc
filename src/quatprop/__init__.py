"""Gaussian quaternion random variables: quaternion algebra, 4D rotation
machinery, structured covariance classes, sampling, and properness
classification."""

from .core import (ATOL, ONE, I, J, K, ComplexPair, PureUnit, Quaternion,
                   QuaternionBasis, STANDARD_BASIS, cayley_dickson,
                   euler_form, validate_basis)
from .rotations import (DoubleRotation, So4Check, double_rotation, is_so4,
                        isoclinic_angles, left_matrix, right_matrix)
from .gaussian import (CovarianceC, CovarianceFaces, CovarianceH, CovarianceR,
                       GeneralParams, HProperParams, MuMuParams, MuOneParams,
                       MuSameParams, OneMuParams, PropernessTag, SampleSet,
                       convert, covariance_from_params, gaussian_pdf,
                       pdf_1mu_proper, read_sample_csv, sample,
                       write_sample_csv)
from .estimation import (Candidate, ComplementaryCovariances,
                         PropernessReport, classify, complementary_covariances,
                         covariance_faces, symmetry_residual, via_class_alias)

__all__ = [
    "ATOL", "ONE", "I", "J", "K",
    "Quaternion", "PureUnit", "QuaternionBasis", "ComplexPair",
    "STANDARD_BASIS", "cayley_dickson", "euler_form", "validate_basis",
    "DoubleRotation", "So4Check", "double_rotation", "is_so4",
    "isoclinic_angles", "left_matrix", "right_matrix",
    "PropernessTag", "MuMuParams", "MuOneParams", "OneMuParams",
    "MuSameParams", "HProperParams", "GeneralParams",
    "CovarianceC", "CovarianceR", "CovarianceH", "CovarianceFaces",
    "SampleSet", "convert", "covariance_from_params", "sample",
    "gaussian_pdf", "pdf_1mu_proper", "read_sample_csv", "write_sample_csv",
    "Candidate", "ComplementaryCovariances", "PropernessReport",
    "classify", "complementary_covariances", "covariance_faces",
    "symmetry_residual", "via_class_alias",
]
