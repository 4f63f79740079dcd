//! Points of interest: the 29 typical categories of the paper (Section VI-A)
//! and a radius-queryable database.

use lead_geo::GridIndex;

/// Number of POI categories — the paper categorises Nantong's 415,639 POIs
/// into 29 typical categories, giving the 32-dimensional feature vector
/// `[lat, lng, t, poi(29)]`.
pub const NUM_POI_CATEGORIES: usize = 29;

/// The 29 POI categories.
///
/// The paper lists "company, hospital, chemical factory, etc."; the full
/// taxonomy is not disclosed, so this is a plausible reconstruction covering
/// every role the HCT domain needs: loading sites (chemical industry,
/// storage, port), unloading sites (consumers of hazardous chemicals), and
/// ordinary urban POIs where drivers take breaks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum PoiCategory {
    /// Chemical production plant (a canonical loading site).
    ChemicalFactory = 0,
    /// Oil / fuel depot.
    OilDepot = 1,
    /// Harbour or river port with chemical cargo berths.
    Port = 2,
    /// Bulk fuel storage facility.
    FuelStorage = 3,
    /// Licensed hazardous-chemicals warehouse.
    ChemicalWarehouse = 4,
    /// Fueling stations are deliberately ambiguous: fuel trucks load/unload
    /// here, and drivers also refuel and rest here — the paper's flagship
    /// "complex staying scenario".
    FuelingStation = 5,
    /// Hospital (oxygen and medical-gas consumer).
    Hospital = 6,
    /// General manufacturing plant.
    Factory = 7,
    /// Construction site.
    ConstructionSite = 8,
    /// Power plant.
    PowerPlant = 9,
    /// Industrial park hosting many plants.
    IndustrialPark = 10,
    /// Water treatment plant (chlorine consumer).
    WaterTreatmentPlant = 11,
    /// Steel mill.
    SteelMill = 12,
    /// Pharmaceutical plant.
    PharmaceuticalPlant = 13,
    /// Paper mill.
    PaperMill = 14,
    /// Restaurant (driver break site).
    Restaurant = 15,
    /// Highway rest area.
    RestArea = 16,
    /// Parking lot.
    ParkingLot = 17,
    /// Hotel (overnight stop).
    Hotel = 18,
    /// Truck depot / fleet yard.
    TruckDepot = 19,
    /// Vehicle repair shop.
    RepairShop = 20,
    /// Supermarket.
    Supermarket = 21,
    /// Residential area.
    Residential = 22,
    /// School.
    School = 23,
    /// Government office.
    Government = 24,
    /// Urban park.
    Park = 25,
    /// Bus station.
    BusStation = 26,
    /// Generic company premises.
    Company = 27,
    /// Logistics / distribution centre.
    LogisticsCenter = 28,
}

impl PoiCategory {
    /// All categories in index order.
    pub const ALL: [PoiCategory; NUM_POI_CATEGORIES] = [
        PoiCategory::ChemicalFactory,
        PoiCategory::OilDepot,
        PoiCategory::Port,
        PoiCategory::FuelStorage,
        PoiCategory::ChemicalWarehouse,
        PoiCategory::FuelingStation,
        PoiCategory::Hospital,
        PoiCategory::Factory,
        PoiCategory::ConstructionSite,
        PoiCategory::PowerPlant,
        PoiCategory::IndustrialPark,
        PoiCategory::WaterTreatmentPlant,
        PoiCategory::SteelMill,
        PoiCategory::PharmaceuticalPlant,
        PoiCategory::PaperMill,
        PoiCategory::Restaurant,
        PoiCategory::RestArea,
        PoiCategory::ParkingLot,
        PoiCategory::Hotel,
        PoiCategory::TruckDepot,
        PoiCategory::RepairShop,
        PoiCategory::Supermarket,
        PoiCategory::Residential,
        PoiCategory::School,
        PoiCategory::Government,
        PoiCategory::Park,
        PoiCategory::BusStation,
        PoiCategory::Company,
        PoiCategory::LogisticsCenter,
    ];

    /// The dense feature index of this category (0..29).
    pub fn index(self) -> usize {
        self as usize
    }

    /// Category from a dense index.
    ///
    /// # Panics
    /// Panics if `idx >= NUM_POI_CATEGORIES`.
    pub fn from_index(idx: usize) -> PoiCategory {
        Self::ALL[idx]
    }

    /// The stable kebab-case name of this category (CSV interchange).
    pub fn name(self) -> &'static str {
        use PoiCategory::*;
        match self {
            ChemicalFactory => "chemical-factory",
            OilDepot => "oil-depot",
            Port => "port",
            FuelStorage => "fuel-storage",
            ChemicalWarehouse => "chemical-warehouse",
            FuelingStation => "fueling-station",
            Hospital => "hospital",
            Factory => "factory",
            ConstructionSite => "construction-site",
            PowerPlant => "power-plant",
            IndustrialPark => "industrial-park",
            WaterTreatmentPlant => "water-treatment-plant",
            SteelMill => "steel-mill",
            PharmaceuticalPlant => "pharmaceutical-plant",
            PaperMill => "paper-mill",
            Restaurant => "restaurant",
            RestArea => "rest-area",
            ParkingLot => "parking-lot",
            Hotel => "hotel",
            TruckDepot => "truck-depot",
            RepairShop => "repair-shop",
            Supermarket => "supermarket",
            Residential => "residential",
            School => "school",
            Government => "government",
            Park => "park",
            BusStation => "bus-station",
            Company => "company",
            LogisticsCenter => "logistics-center",
        }
    }

    /// Parses a name produced by [`Self::name`].
    pub fn from_name(name: &str) -> Option<PoiCategory> {
        Self::ALL.iter().copied().find(|c| c.name() == name)
    }

    /// The HCT role this category plays.
    pub fn role(self) -> PoiRole {
        use PoiCategory::*;
        match self {
            ChemicalFactory | OilDepot | Port | FuelStorage | ChemicalWarehouse => PoiRole::Loading,
            Hospital | Factory | ConstructionSite | PowerPlant | IndustrialPark
            | WaterTreatmentPlant | SteelMill | PharmaceuticalPlant | PaperMill => {
                PoiRole::Unloading
            }
            FuelingStation => PoiRole::LoadingAndBreak,
            _ => PoiRole::Ordinary,
        }
    }
}

/// What a POI category means for an HCT process.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PoiRole {
    /// Hazardous chemicals are loaded here.
    Loading,
    /// Hazardous chemicals are unloaded here.
    Unloading,
    /// Both a loading site and a common break location (fueling stations).
    LoadingAndBreak,
    /// Ordinary urban POI; staying here is a break, never loading/unloading.
    Ordinary,
}

/// A single point of interest.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Poi {
    /// Latitude in degrees.
    pub lat: f64,
    /// Longitude in degrees.
    pub lng: f64,
    /// Category.
    pub category: PoiCategory,
}

/// A radius-queryable POI database.
///
/// Backed by a [`GridIndex`] with 100 m cells — the radius used by LEAD's
/// POI feature extraction. Also serves the 500 m whitelist searches of the
/// SP-R baseline.
#[derive(Debug, Clone)]
pub struct PoiDatabase {
    index: GridIndex<PoiCategory>,
}

impl PoiDatabase {
    /// Builds a database over `pois`.
    pub fn new(pois: Vec<Poi>) -> Self {
        let items = pois
            .into_iter()
            .map(|p| (p.lat, p.lng, p.category))
            .collect();
        Self {
            index: GridIndex::build(items, 100.0),
        }
    }

    /// Total number of POIs.
    pub fn len(&self) -> usize {
        self.index.len()
    }

    /// Whether the database is empty.
    pub fn is_empty(&self) -> bool {
        self.index.is_empty()
    }

    /// All POIs, in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = Poi> + '_ {
        self.index
            .items()
            .iter()
            .map(|&(lat, lng, category)| Poi { lat, lng, category })
    }

    /// Counts POIs of each category within `radius_m` of `(lat, lng)` — the
    /// paper's 29-dimensional `poi` feature (Section IV-A).
    pub fn category_counts_within(
        &self,
        lat: f64,
        lng: f64,
        radius_m: f64,
    ) -> [u32; NUM_POI_CATEGORIES] {
        let mut counts = [0u32; NUM_POI_CATEGORIES];
        self.index
            .for_each_within(lat, lng, radius_m, |_, _, cat, _| {
                counts[cat.index()] += 1;
            });
        counts
    }

    /// The nearest POI within `radius_m` of `(lat, lng)` and its distance —
    /// used e.g. to resolve a detected loading/unloading stay point to an
    /// address when generating waybills.
    pub fn nearest_within(&self, lat: f64, lng: f64, radius_m: f64) -> Option<(Poi, f64)> {
        let mut best: Option<(Poi, f64)> = None;
        self.index
            .for_each_within(lat, lng, radius_m, |plat, plng, cat, d| {
                if best.is_none_or(|(_, bd)| d < bd) {
                    best = Some((
                        Poi {
                            lat: plat,
                            lng: plng,
                            category: *cat,
                        },
                        d,
                    ));
                }
            });
        best
    }

    /// Counts POIs of each category within `radius_m` by scanning every POI —
    /// the unindexed reference implementation, kept for the `poi_index`
    /// ablation benchmark and correctness tests.
    pub fn category_counts_within_scan(
        &self,
        lat: f64,
        lng: f64,
        radius_m: f64,
    ) -> [u32; NUM_POI_CATEGORIES] {
        let mut counts = [0u32; NUM_POI_CATEGORIES];
        for &(plat, plng, cat) in self.index.items() {
            if lead_geo::haversine_m(lat, lng, plat, plng) <= radius_m {
                counts[cat.index()] += 1;
            }
        }
        counts
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lead_geo::distance::meters_to_lng_deg;

    #[test]
    fn category_indexes_are_dense_and_stable() {
        for (i, c) in PoiCategory::ALL.iter().enumerate() {
            assert_eq!(c.index(), i);
            assert_eq!(PoiCategory::from_index(i), *c);
        }
    }

    #[test]
    fn roles_cover_all_kinds() {
        let mut loading = 0;
        let mut unloading = 0;
        let mut ordinary = 0;
        let mut both = 0;
        for c in PoiCategory::ALL {
            match c.role() {
                PoiRole::Loading => loading += 1,
                PoiRole::Unloading => unloading += 1,
                PoiRole::Ordinary => ordinary += 1,
                PoiRole::LoadingAndBreak => both += 1,
            }
        }
        assert_eq!(loading, 5);
        assert_eq!(unloading, 9);
        assert_eq!(both, 1);
        assert_eq!(ordinary, 14);
        assert_eq!(loading + unloading + ordinary + both, NUM_POI_CATEGORIES);
    }

    #[test]
    fn counts_within_radius() {
        let dlng = meters_to_lng_deg(50.0, 32.0);
        let db = PoiDatabase::new(vec![
            Poi {
                lat: 32.0,
                lng: 120.9,
                category: PoiCategory::ChemicalFactory,
            },
            Poi {
                lat: 32.0,
                lng: 120.9 + dlng,
                category: PoiCategory::Restaurant,
            },
            Poi {
                lat: 32.0,
                lng: 120.9 + 10.0 * dlng,
                category: PoiCategory::Hospital,
            },
        ]);
        let counts = db.category_counts_within(32.0, 120.9, 100.0);
        assert_eq!(counts[PoiCategory::ChemicalFactory.index()], 1);
        assert_eq!(counts[PoiCategory::Restaurant.index()], 1);
        assert_eq!(counts[PoiCategory::Hospital.index()], 0);
    }

    #[test]
    fn indexed_and_scan_counts_agree() {
        let mut pois = Vec::new();
        for i in 0..200 {
            let lat = 32.0 + (i as f64 * 0.313) % 0.05;
            let lng = 120.9 + (i as f64 * 0.131) % 0.05;
            pois.push(Poi {
                lat,
                lng,
                category: PoiCategory::from_index(i % NUM_POI_CATEGORIES),
            });
        }
        let db = PoiDatabase::new(pois);
        for &(qlat, qlng, r) in &[
            (32.01, 120.92, 100.0),
            (32.02, 120.91, 500.0),
            (32.0, 120.9, 2000.0),
        ] {
            assert_eq!(
                db.category_counts_within(qlat, qlng, r),
                db.category_counts_within_scan(qlat, qlng, r)
            );
        }
    }

    #[test]
    fn names_roundtrip_and_are_unique() {
        let mut seen = std::collections::BTreeSet::new();
        for c in PoiCategory::ALL {
            assert!(seen.insert(c.name()), "duplicate name {}", c.name());
            assert_eq!(PoiCategory::from_name(c.name()), Some(c));
        }
        assert_eq!(PoiCategory::from_name("nonsense"), None);
    }

    #[test]
    fn nearest_within_returns_closest_poi() {
        let dlng = meters_to_lng_deg(50.0, 32.0);
        let db = PoiDatabase::new(vec![
            Poi {
                lat: 32.0,
                lng: 120.9,
                category: PoiCategory::ChemicalFactory,
            },
            Poi {
                lat: 32.0,
                lng: 120.9 + dlng,
                category: PoiCategory::Restaurant,
            },
        ]);
        let (poi, d) = db.nearest_within(32.0, 120.9 + dlng * 0.8, 200.0).unwrap();
        assert_eq!(poi.category, PoiCategory::Restaurant);
        assert!(d < 15.0);
        assert!(db.nearest_within(33.0, 120.0, 200.0).is_none());
    }

    #[test]
    fn empty_database_counts_zero() {
        let db = PoiDatabase::new(Vec::new());
        assert!(db.is_empty());
        assert_eq!(
            db.category_counts_within(32.0, 120.9, 100.0),
            [0; NUM_POI_CATEGORIES]
        );
    }
}
