//! 3×3 and 4×4 matrices (column-major, matching GPU conventions).

use crate::vec::{Vec3, Vec4};
use std::ops::Mul;

/// A 3×3 `f32` matrix stored as three column vectors.
///
/// Used for Gaussian covariance factors (rotation × scale) and for the
/// linear part of instance transforms.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Mat3 {
    /// First column.
    pub x_axis: Vec3,
    /// Second column.
    pub y_axis: Vec3,
    /// Third column.
    pub z_axis: Vec3,
}

impl Mat3 {
    /// The identity matrix.
    pub const IDENTITY: Self = Self {
        x_axis: Vec3::X,
        y_axis: Vec3::Y,
        z_axis: Vec3::Z,
    };

    /// Builds a matrix from column vectors.
    pub const fn from_cols(x_axis: Vec3, y_axis: Vec3, z_axis: Vec3) -> Self {
        Self {
            x_axis,
            y_axis,
            z_axis,
        }
    }

    /// Builds a diagonal matrix.
    pub const fn from_diagonal(d: Vec3) -> Self {
        Self {
            x_axis: Vec3::new(d.x, 0.0, 0.0),
            y_axis: Vec3::new(0.0, d.y, 0.0),
            z_axis: Vec3::new(0.0, 0.0, d.z),
        }
    }

    /// Returns column `i` (0..3).
    ///
    /// # Panics
    ///
    /// Panics if `i >= 3`.
    pub fn col(&self, i: usize) -> Vec3 {
        match i {
            0 => self.x_axis,
            1 => self.y_axis,
            2 => self.z_axis,
            _ => panic!("Mat3 column index out of range: {i}"),
        }
    }

    /// Returns row `i` (0..3).
    ///
    /// # Panics
    ///
    /// Panics if `i >= 3`.
    pub fn row(&self, i: usize) -> Vec3 {
        Vec3::new(self.x_axis[i], self.y_axis[i], self.z_axis[i])
    }

    /// Matrix transpose.
    pub fn transpose(&self) -> Self {
        Self::from_cols(self.row(0), self.row(1), self.row(2))
    }

    /// Determinant.
    pub fn determinant(&self) -> f32 {
        self.x_axis.dot(self.y_axis.cross(self.z_axis))
    }

    /// Matrix inverse.
    ///
    /// Returns `None` when the matrix is singular (|det| below `1e-20`).
    pub fn inverse(&self) -> Option<Self> {
        let det = self.determinant();
        if det.abs() < 1e-20 {
            return None;
        }
        let inv_det = 1.0 / det;
        // Adjugate-transpose method: columns of the inverse are the scaled
        // cross products of the original columns.
        let a = self.y_axis.cross(self.z_axis) * inv_det;
        let b = self.z_axis.cross(self.x_axis) * inv_det;
        let c = self.x_axis.cross(self.y_axis) * inv_det;
        // a, b, c are the *rows* of the inverse.
        Some(Self::from_cols(
            Vec3::new(a.x, b.x, c.x),
            Vec3::new(a.y, b.y, c.y),
            Vec3::new(a.z, b.z, c.z),
        ))
    }

    /// Multiplies a vector: `self * v`.
    pub fn mul_vec3(&self, v: Vec3) -> Vec3 {
        self.x_axis * v.x + self.y_axis * v.y + self.z_axis * v.z
    }

    /// Computes the symmetric product `M * M^T`, used to form a covariance
    /// matrix from its factor `M = R * S`.
    pub fn mul_self_transpose(&self) -> Self {
        self.mul_mat3(&self.transpose())
    }

    /// Matrix product `self * other`.
    pub fn mul_mat3(&self, other: &Self) -> Self {
        Self::from_cols(
            self.mul_vec3(other.x_axis),
            self.mul_vec3(other.y_axis),
            self.mul_vec3(other.z_axis),
        )
    }
}

impl Default for Mat3 {
    fn default() -> Self {
        Self::IDENTITY
    }
}

impl Mul<Vec3> for Mat3 {
    type Output = Vec3;
    fn mul(self, v: Vec3) -> Vec3 {
        self.mul_vec3(v)
    }
}

impl Mul for Mat3 {
    type Output = Mat3;
    fn mul(self, rhs: Mat3) -> Mat3 {
        self.mul_mat3(&rhs)
    }
}

/// A 4×4 `f32` matrix stored as four column vectors.
///
/// Used for camera view matrices and full homogeneous transforms.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Mat4 {
    /// First column.
    pub x_axis: Vec4,
    /// Second column.
    pub y_axis: Vec4,
    /// Third column.
    pub z_axis: Vec4,
    /// Fourth column (translation in affine matrices).
    pub w_axis: Vec4,
}

impl Mat4 {
    /// The identity matrix.
    pub const IDENTITY: Self = Self {
        x_axis: Vec4::new(1.0, 0.0, 0.0, 0.0),
        y_axis: Vec4::new(0.0, 1.0, 0.0, 0.0),
        z_axis: Vec4::new(0.0, 0.0, 1.0, 0.0),
        w_axis: Vec4::new(0.0, 0.0, 0.0, 1.0),
    };

    /// Builds a matrix from column vectors.
    pub const fn from_cols(x_axis: Vec4, y_axis: Vec4, z_axis: Vec4, w_axis: Vec4) -> Self {
        Self {
            x_axis,
            y_axis,
            z_axis,
            w_axis,
        }
    }

    /// Builds an affine matrix from a linear part and a translation.
    pub fn from_linear_translation(linear: Mat3, translation: Vec3) -> Self {
        Self::from_cols(
            linear.x_axis.extend(0.0),
            linear.y_axis.extend(0.0),
            linear.z_axis.extend(0.0),
            translation.extend(1.0),
        )
    }

    /// The upper-left 3×3 linear part.
    pub fn linear(&self) -> Mat3 {
        Mat3::from_cols(
            self.x_axis.truncate(),
            self.y_axis.truncate(),
            self.z_axis.truncate(),
        )
    }

    /// The translation column.
    pub fn translation(&self) -> Vec3 {
        self.w_axis.truncate()
    }

    /// Transforms a point (w = 1).
    pub fn transform_point(&self, p: Vec3) -> Vec3 {
        self.linear().mul_vec3(p) + self.translation()
    }

    /// Matrix product `self * other`.
    pub fn mul_mat4(&self, other: &Self) -> Self {
        let mul_vec4 =
            |v: Vec4| self.x_axis * v.x + self.y_axis * v.y + self.z_axis * v.z + self.w_axis * v.w;
        Self::from_cols(
            mul_vec4(other.x_axis),
            mul_vec4(other.y_axis),
            mul_vec4(other.z_axis),
            mul_vec4(other.w_axis),
        )
    }

    /// Inverse of an affine matrix (linear part must be invertible).
    ///
    /// Returns `None` when the linear part is singular.
    pub fn affine_inverse(&self) -> Option<Self> {
        let inv_linear = self.linear().inverse()?;
        let inv_translation = -(inv_linear.mul_vec3(self.translation()));
        Some(Self::from_linear_translation(inv_linear, inv_translation))
    }

    /// Right-handed look-at view matrix (camera at `eye`, looking at
    /// `center`, with up vector `up`).
    pub fn look_at(eye: Vec3, center: Vec3, up: Vec3) -> Self {
        let f = (center - eye).normalized();
        let s = f.cross(up).normalized();
        let u = s.cross(f);
        // World-to-camera: rows are the camera basis.
        Self::from_cols(
            Vec4::new(s.x, u.x, -f.x, 0.0),
            Vec4::new(s.y, u.y, -f.y, 0.0),
            Vec4::new(s.z, u.z, -f.z, 0.0),
            Vec4::new(-s.dot(eye), -u.dot(eye), f.dot(eye), 1.0),
        )
    }
}

impl Default for Mat4 {
    fn default() -> Self {
        Self::IDENTITY
    }
}

impl Mul for Mat4 {
    type Output = Mat4;
    fn mul(self, rhs: Mat4) -> Mat4 {
        self.mul_mat4(&rhs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::EPS;

    fn assert_vec3_close(a: Vec3, b: Vec3) {
        assert!((a - b).length() < 1e-4, "{a} != {b}");
    }

    #[test]
    fn identity_preserves_vectors() {
        let v = Vec3::new(1.0, -2.0, 3.0);
        assert_eq!(Mat3::IDENTITY.mul_vec3(v), v);
    }

    #[test]
    fn diagonal_scales_components() {
        let m = Mat3::from_diagonal(Vec3::new(2.0, 3.0, 4.0));
        assert_eq!(m.mul_vec3(Vec3::ONE), Vec3::new(2.0, 3.0, 4.0));
    }

    #[test]
    fn transpose_swaps_rows_and_cols() {
        let m = Mat3::from_cols(
            Vec3::new(1.0, 2.0, 3.0),
            Vec3::new(4.0, 5.0, 6.0),
            Vec3::new(7.0, 8.0, 9.0),
        );
        let t = m.transpose();
        assert_eq!(t.x_axis, Vec3::new(1.0, 4.0, 7.0));
        assert_eq!(t.row(0), m.col(0));
    }

    #[test]
    fn inverse_times_original_is_identity() {
        let m = Mat3::from_cols(
            Vec3::new(2.0, 0.0, 1.0),
            Vec3::new(-1.0, 3.0, 0.5),
            Vec3::new(0.0, 1.0, 4.0),
        );
        let inv = m.inverse().expect("invertible");
        let prod = m.mul_mat3(&inv);
        assert_vec3_close(prod.x_axis, Vec3::X);
        assert_vec3_close(prod.y_axis, Vec3::Y);
        assert_vec3_close(prod.z_axis, Vec3::Z);
    }

    #[test]
    fn singular_matrix_has_no_inverse() {
        let m = Mat3::from_cols(Vec3::X, Vec3::X, Vec3::Z);
        assert!(m.inverse().is_none());
    }

    #[test]
    fn determinant_of_diagonal_is_product() {
        let m = Mat3::from_diagonal(Vec3::new(2.0, 3.0, 4.0));
        assert!((m.determinant() - 24.0).abs() < EPS);
    }

    #[test]
    fn mat4_affine_inverse_round_trips_points() {
        let linear = Mat3::from_cols(
            Vec3::new(0.0, 1.0, 0.0),
            Vec3::new(-2.0, 0.0, 0.0),
            Vec3::new(0.0, 0.0, 3.0),
        );
        let m = Mat4::from_linear_translation(linear, Vec3::new(5.0, -1.0, 2.0));
        let inv = m.affine_inverse().expect("invertible");
        let p = Vec3::new(0.3, 0.7, -1.2);
        assert_vec3_close(inv.transform_point(m.transform_point(p)), p);
    }

    #[test]
    fn look_at_maps_eye_to_origin() {
        let eye = Vec3::new(1.0, 2.0, 3.0);
        let view = Mat4::look_at(eye, Vec3::ZERO, Vec3::Y);
        assert_vec3_close(view.transform_point(eye), Vec3::ZERO);
    }

    #[test]
    fn look_at_center_is_on_negative_z() {
        let eye = Vec3::new(0.0, 0.0, 5.0);
        let view = Mat4::look_at(eye, Vec3::ZERO, Vec3::Y);
        let c = view.transform_point(Vec3::ZERO);
        assert_vec3_close(c, Vec3::new(0.0, 0.0, -5.0));
    }

    #[test]
    fn mul_self_transpose_is_symmetric() {
        let m = Mat3::from_cols(
            Vec3::new(1.0, 0.2, 0.0),
            Vec3::new(0.0, 2.0, 0.3),
            Vec3::new(0.5, 0.0, 3.0),
        );
        let s = m.mul_self_transpose();
        assert!((s.row(0).y - s.row(1).x).abs() < EPS);
        assert!((s.row(0).z - s.row(2).x).abs() < EPS);
        assert!((s.row(1).z - s.row(2).y).abs() < EPS);
    }
}
