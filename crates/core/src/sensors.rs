//! Sensor sets and placement masks.

use crate::error::{CoreError, Result};
use crate::map::ThermalMap;

/// A placement constraint: which grid cells may host a sensor.
///
/// The paper's Fig. 6 experiment forbids sensors inside regular/critical
/// structures (caches); a mask expresses exactly that.
#[derive(Debug, Clone, PartialEq)]
pub struct Mask {
    rows: usize,
    cols: usize,
    allowed: Vec<bool>,
}

impl Mask {
    /// A mask allowing every cell of an `rows × cols` grid.
    pub fn all_allowed(rows: usize, cols: usize) -> Self {
        Mask {
            rows,
            cols,
            allowed: vec![true; rows * cols],
        }
    }

    /// Builds a mask from an explicit allow vector (column-stacked).
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::ShapeMismatch`] if `allowed.len() != rows·cols`.
    pub fn new(rows: usize, cols: usize, allowed: Vec<bool>) -> Result<Self> {
        if allowed.len() != rows * cols {
            return Err(CoreError::ShapeMismatch {
                context: "Mask::new",
                expected: rows * cols,
                found: allowed.len(),
            });
        }
        Ok(Mask {
            rows,
            cols,
            allowed,
        })
    }

    /// Forbids every cell inside the given rectangles, specified in
    /// normalized die coordinates `(x, y, w, h)` with `x` along columns and
    /// `y` along rows, each in `[0, 1]`.
    pub fn forbid_rects(mut self, rects: &[(f64, f64, f64, f64)]) -> Self {
        for &(x, y, w, h) in rects {
            let c0 = (x * self.cols as f64).floor().max(0.0) as usize;
            let c1 = (((x + w) * self.cols as f64).ceil() as usize).min(self.cols);
            let r0 = (y * self.rows as f64).floor().max(0.0) as usize;
            let r1 = (((y + h) * self.rows as f64).ceil() as usize).min(self.rows);
            for c in c0..c1 {
                for r in r0..r1 {
                    self.allowed[r + c * self.rows] = false;
                }
            }
        }
        self
    }

    /// Grid height.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Grid width.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Whether cell index `i` (column-stacked) may host a sensor.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    #[inline]
    pub fn is_allowed(&self, i: usize) -> bool {
        self.allowed[i]
    }

    /// Number of allowed cells.
    pub fn allowed_count(&self) -> usize {
        self.allowed.iter().filter(|&&a| a).count()
    }

    /// Indices of all allowed cells, ascending.
    pub fn allowed_indices(&self) -> Vec<usize> {
        (0..self.allowed.len())
            .filter(|&i| self.allowed[i])
            .collect()
    }
}

/// A set of `M` sensor locations on the thermal grid.
///
/// Locations are column-stacked cell indices, kept sorted and unique.
#[derive(Debug, Clone, PartialEq)]
pub struct SensorSet {
    rows: usize,
    cols: usize,
    locations: Vec<usize>,
}

impl SensorSet {
    /// Creates a sensor set from cell indices (deduplicated and sorted).
    ///
    /// # Errors
    ///
    /// * [`CoreError::InvalidArgument`] if `locations` is empty.
    /// * [`CoreError::ShapeMismatch`] if any index is out of grid range.
    pub fn new(rows: usize, cols: usize, mut locations: Vec<usize>) -> Result<Self> {
        if locations.is_empty() {
            return Err(CoreError::InvalidArgument {
                context: "SensorSet::new: empty location list",
            });
        }
        let n = rows * cols;
        locations.sort_unstable();
        locations.dedup();
        if let Some(&bad) = locations.iter().find(|&&i| i >= n) {
            let _ = bad;
            return Err(CoreError::ShapeMismatch {
                context: "SensorSet::new: location out of range",
                expected: n,
                found: *locations.last().expect("non-empty"),
            });
        }
        Ok(SensorSet {
            rows,
            cols,
            locations,
        })
    }

    /// Creates a sensor set from `(row, col)` positions.
    ///
    /// # Errors
    ///
    /// Same contract as [`SensorSet::new`].
    pub fn from_positions(rows: usize, cols: usize, positions: &[(usize, usize)]) -> Result<Self> {
        let locations = positions.iter().map(|&(r, c)| r + c * rows).collect();
        SensorSet::new(rows, cols, locations)
    }

    /// Number of sensors `M`.
    pub fn len(&self) -> usize {
        self.locations.len()
    }

    /// Whether the set is empty (never true for a constructed set).
    pub fn is_empty(&self) -> bool {
        self.locations.is_empty()
    }

    /// Grid height.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Grid width.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// The sorted cell indices.
    pub fn locations(&self) -> &[usize] {
        &self.locations
    }

    /// The `(row, col)` positions of the sensors.
    pub fn positions(&self) -> Vec<(usize, usize)> {
        self.locations
            .iter()
            .map(|&i| (i % self.rows, i / self.rows))
            .collect()
    }

    /// Reads the map at the sensor locations — the measurement vector
    /// `x_S` of the paper.
    ///
    /// # Panics
    ///
    /// Panics if the map shape disagrees with the sensor grid.
    pub fn sample(&self, map: &ThermalMap) -> Vec<f64> {
        assert_eq!(
            (map.rows(), map.cols()),
            (self.rows, self.cols),
            "map shape disagrees with sensor grid"
        );
        let data = map.as_slice();
        self.locations.iter().map(|&i| data[i]).collect()
    }

    /// Samples a raw column-stacked vector (same convention as
    /// [`SensorSet::sample`], no shape check beyond length).
    ///
    /// # Panics
    ///
    /// Panics if `cells.len() != rows·cols`.
    pub fn sample_slice(&self, cells: &[f64]) -> Vec<f64> {
        assert_eq!(cells.len(), self.rows * self.cols, "cell vector length");
        self.locations.iter().map(|&i| cells[i]).collect()
    }

    /// Validates one interval's readings against this layout: exactly `M`
    /// values, every one finite. Every path where readings enter the
    /// system runs this before touching any state, so a NaN or ±inf
    /// reading is refused with a typed error instead of silently turning
    /// every cell of a map (or every later step of a tracker) into NaN.
    ///
    /// # Errors
    ///
    /// * [`CoreError::ShapeMismatch`] if `readings.len() != M`.
    /// * [`CoreError::NonFiniteReading`] naming the first sensor index
    ///   whose reading is NaN or ±inf.
    pub fn check_readings(&self, readings: &[f64]) -> Result<()> {
        if readings.len() != self.len() {
            return Err(CoreError::ShapeMismatch {
                context: "sensor readings",
                expected: self.len(),
                found: readings.len(),
            });
        }
        match readings.iter().position(|x| !x.is_finite()) {
            Some(sensor) => Err(CoreError::NonFiniteReading { sensor }),
            None => Ok(()),
        }
    }

    /// Checks that every sensor respects a mask.
    pub fn respects(&self, mask: &Mask) -> bool {
        self.locations.iter().all(|&i| mask.is_allowed(i))
    }

    /// Renders the layout as ASCII (`o` sensor, `·` free cell, `x`
    /// forbidden by the optional mask) — Fig. 6(a)/(c) style output.
    pub fn render_ascii(&self, mask: Option<&Mask>) -> String {
        let mut out = String::with_capacity((self.cols + 1) * self.rows);
        for r in 0..self.rows {
            for c in 0..self.cols {
                let i = r + c * self.rows;
                let ch = if self.locations.binary_search(&i).is_ok() {
                    'o'
                } else if mask.is_some_and(|m| !m.is_allowed(i)) {
                    'x'
                } else {
                    '.'
                };
                out.push(ch);
            }
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mask_all_allowed() {
        let m = Mask::all_allowed(3, 4);
        assert_eq!(m.allowed_count(), 12);
        assert_eq!(m.allowed_indices().len(), 12);
        assert!(m.is_allowed(0));
    }

    #[test]
    fn mask_forbid_rects() {
        // Forbid the left half of a 4x4 grid.
        let m = Mask::all_allowed(4, 4).forbid_rects(&[(0.0, 0.0, 0.5, 1.0)]);
        assert_eq!(m.allowed_count(), 8);
        for c in 0..2 {
            for r in 0..4 {
                assert!(!m.is_allowed(r + c * 4));
            }
        }
        for c in 2..4 {
            for r in 0..4 {
                assert!(m.is_allowed(r + c * 4));
            }
        }
    }

    #[test]
    fn mask_new_validates() {
        assert!(Mask::new(2, 2, vec![true; 3]).is_err());
        let m = Mask::new(2, 2, vec![true, false, true, false]).unwrap();
        assert_eq!(m.allowed_count(), 2);
        assert_eq!(m.allowed_indices(), vec![0, 2]);
    }

    #[test]
    fn sensor_set_dedup_and_sort() {
        let s = SensorSet::new(3, 3, vec![5, 1, 5, 7]).unwrap();
        assert_eq!(s.locations(), &[1, 5, 7]);
        assert_eq!(s.len(), 3);
    }

    #[test]
    fn sensor_set_validates() {
        assert!(SensorSet::new(2, 2, vec![]).is_err());
        assert!(SensorSet::new(2, 2, vec![4]).is_err());
    }

    #[test]
    fn positions_roundtrip() {
        let s = SensorSet::from_positions(4, 3, &[(1, 2), (0, 0)]).unwrap();
        assert_eq!(s.positions(), vec![(0, 0), (1, 2)]);
        assert_eq!(s.locations(), &[0, 9]);
    }

    #[test]
    fn sampling_reads_correct_cells() {
        let map = ThermalMap::from_fn(3, 3, |r, c| (r * 10 + c) as f64);
        let s = SensorSet::from_positions(3, 3, &[(0, 0), (2, 1)]).unwrap();
        assert_eq!(s.sample(&map), vec![0.0, 21.0]);
        assert_eq!(s.sample_slice(map.as_slice()), vec![0.0, 21.0]);
    }

    #[test]
    fn check_readings_names_the_first_bad_sensor() {
        let s = SensorSet::new(4, 4, vec![0, 5, 10]).unwrap();
        assert_eq!(s.check_readings(&[1.0, -2.0, 3.5]), Ok(()));
        assert!(matches!(
            s.check_readings(&[1.0, 2.0]),
            Err(CoreError::ShapeMismatch {
                expected: 3,
                found: 2,
                ..
            })
        ));
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            assert_eq!(
                s.check_readings(&[1.0, bad, bad]),
                Err(CoreError::NonFiniteReading { sensor: 1 })
            );
        }
    }

    #[test]
    fn respects_mask() {
        let mask = Mask::all_allowed(3, 3).forbid_rects(&[(0.0, 0.0, 1.0, 0.34)]); // top row
        let bad = SensorSet::from_positions(3, 3, &[(0, 1)]).unwrap();
        let good = SensorSet::from_positions(3, 3, &[(2, 1)]).unwrap();
        assert!(!bad.respects(&mask));
        assert!(good.respects(&mask));
    }

    #[test]
    fn ascii_layout() {
        let mask = Mask::all_allowed(2, 3).forbid_rects(&[(0.0, 0.5, 1.0, 0.5)]);
        let s = SensorSet::from_positions(2, 3, &[(0, 1)]).unwrap();
        let art = s.render_ascii(Some(&mask));
        assert_eq!(art, ".o.\nxxx\n");
    }
}
