package datagen

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/relation"
)

// TableName is the fact table name used by dataset and workload alike.
const TableName = "ListProperty"

// Primary attribute names (the six the paper's x=0.4 elimination retains,
// plus the locational and temporal ones).
const (
	AttrNeighborhood = "neighborhood"
	AttrCity         = "city"
	AttrState        = "state"
	AttrZipcode      = "zipcode"
	AttrPrice        = "price"
	AttrBedrooms     = "bedroomcount"
	AttrBaths        = "bathcount"
	AttrYearBuilt    = "yearbuilt"
	AttrPropertyType = "propertytype"
	AttrSqft         = "squarefootage"
)

// DatasetConfig controls the synthetic ListProperty generator.
type DatasetConfig struct {
	// Rows is the number of homes to generate. Default 100000.
	Rows int
	// Seed makes generation deterministic. Default 1.
	Seed int64
	// FillerAttrs is the number of additional rarely-queried attributes
	// (mirroring the 53-attribute MSN table of which only 6 survive
	// elimination). Default 43, giving 53 attributes total.
	FillerAttrs int
}

func (c DatasetConfig) withDefaults() DatasetConfig {
	if c.Rows == 0 {
		c.Rows = 100000
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.FillerAttrs == 0 {
		c.FillerAttrs = 43
	}
	return c
}

// fillerName returns the i-th filler attribute name. The first few carry
// realistic names so example output reads naturally; the rest are numbered.
func fillerName(i int) string {
	named := []string{
		"lotsize", "garagespaces", "stories", "hoafee", "heatingtype",
		"coolingtype", "fireplacecount", "haspool", "viewtype", "waterfront",
		"basementtype", "rooftype", "flooring", "parkingtype", "schooldistrict",
		"listingagent",
	}
	if i < len(named) {
		return named[i]
	}
	return fmt.Sprintf("feature%02d", i-len(named)+1)
}

// fillerIsNumeric alternates filler types so both partitioners see cold
// attributes.
func fillerIsNumeric(i int) bool { return i%2 == 0 }

// Schema returns the ListProperty schema for the given config.
func Schema(cfg DatasetConfig) *relation.Schema {
	cfg = cfg.withDefaults()
	attrs := []relation.Attribute{
		{Name: AttrNeighborhood, Type: relation.Categorical},
		{Name: AttrCity, Type: relation.Categorical},
		{Name: AttrState, Type: relation.Categorical},
		{Name: AttrZipcode, Type: relation.Categorical},
		{Name: AttrPrice, Type: relation.Numeric},
		{Name: AttrBedrooms, Type: relation.Numeric},
		{Name: AttrBaths, Type: relation.Numeric},
		{Name: AttrYearBuilt, Type: relation.Numeric},
		{Name: AttrPropertyType, Type: relation.Categorical},
		{Name: AttrSqft, Type: relation.Numeric},
	}
	for i := 0; i < cfg.FillerAttrs; i++ {
		typ := relation.Categorical
		if fillerIsNumeric(i) {
			typ = relation.Numeric
		}
		attrs = append(attrs, relation.Attribute{Name: fillerName(i), Type: typ})
	}
	return relation.MustSchema(attrs...)
}

// Stream generates the synthetic ListProperty rows one at a time, handing
// each freshly allocated tuple to emit without materializing a relation —
// memory use is constant in cfg.Rows. The rng call sequence is exactly
// Dataset's, so row i of Stream equals row i of Dataset(cfg) for the same
// config (pinned by TestStreamMatchesDataset). A non-nil error from emit
// stops generation and is returned.
func Stream(cfg DatasetConfig, emit func(i int, t relation.Tuple) error) error {
	cfg = cfg.withDefaults()
	rng := rand.New(rand.NewSource(cfg.Seed))
	regions := Regions()
	types := PropertyTypes()
	typeWeights := []float64{0.52, 0.22, 0.12, 0.07, 0.04, 0.03}
	for i := 0; i < cfg.Rows; i++ {
		reg := pickRegion(rng, regions)
		hoodIdx := rng.Intn(len(reg.Neighborhoods))
		hood := reg.Neighborhoods[hoodIdx]
		city, state := splitHood(hood)
		zip := zipFor(hood, rng.Intn(3))

		beds := pickBedrooms(rng)
		ptype := types[pickWeighted(rng, typeWeights)]
		// Sqft scales with bedrooms plus noise; condos run smaller.
		sqft := 450 + beds*420 + rng.NormFloat64()*320
		if ptype == "Condo" {
			sqft *= 0.72
		}
		if sqft < 350 {
			sqft = 350 + rng.Float64()*150
		}
		sqft = math.Round(sqft/10) * 10
		// Price: log-normal around the region base, boosted by size and the
		// neighborhood's intra-region price level.
		sizeBoost := sqft / (450 + 3.2*420) // ≈1 for an average home
		price := reg.BasePrice * HoodPriceFactor(hoodIdx, len(reg.Neighborhoods)) *
			sizeBoost * math.Exp(rng.NormFloat64()*0.45)
		if price < 40000 {
			price = 40000 + rng.Float64()*20000
		}
		if price > 5000000 {
			price = 5000000
		}
		price = math.Round(price/100) * 100
		baths := 1 + math.Floor(beds/2) + float64(rng.Intn(2))
		year := pickYear(rng)

		tuple := relation.Tuple{
			relation.StringValue(hood),
			relation.StringValue(city),
			relation.StringValue(state),
			relation.StringValue(zip),
			relation.NumberValue(price),
			relation.NumberValue(beds),
			relation.NumberValue(baths),
			relation.NumberValue(year),
			relation.StringValue(ptype),
			relation.NumberValue(sqft),
		}
		for f := 0; f < cfg.FillerAttrs; f++ {
			if fillerIsNumeric(f) {
				tuple = append(tuple, relation.NumberValue(float64(rng.Intn(1000))))
			} else {
				tuple = append(tuple, relation.StringValue(fmt.Sprintf("opt%d", rng.Intn(8))))
			}
		}
		if err := emit(i, tuple); err != nil {
			return err
		}
	}
	return nil
}

// Dataset generates the synthetic ListProperty relation: Rows homes across
// the metro regions with correlated price, size and bedroom counts. It is
// the materializing wrapper around Stream.
func Dataset(cfg DatasetConfig) *relation.Relation {
	cfg = cfg.withDefaults()
	r := relation.New(TableName, Schema(cfg))
	r.Grow(cfg.Rows)
	if err := Stream(cfg, func(_ int, t relation.Tuple) error {
		return r.Append(t)
	}); err != nil {
		panic(err) // unreachable: tuples match Schema(cfg) by construction
	}
	return r
}

func pickRegion(rng *rand.Rand, regions []Region) Region {
	total := 0.0
	for _, r := range regions {
		total += r.Weight
	}
	x := rng.Float64() * total
	for _, r := range regions {
		x -= r.Weight
		if x <= 0 {
			return r
		}
	}
	return regions[len(regions)-1]
}

func pickWeighted(rng *rand.Rand, weights []float64) int {
	total := 0.0
	for _, w := range weights {
		total += w
	}
	x := rng.Float64() * total
	for i, w := range weights {
		x -= w
		if x <= 0 {
			return i
		}
	}
	return len(weights) - 1
}

// pickBedrooms skews toward 3-4 bedroom homes (1..9).
func pickBedrooms(rng *rand.Rand) float64 {
	weights := []float64{0.06, 0.16, 0.30, 0.26, 0.12, 0.06, 0.02, 0.01, 0.01}
	return float64(1 + pickWeighted(rng, weights))
}

// pickYear skews toward recent construction, 1900-2004.
func pickYear(rng *rand.Rand) float64 {
	u := rng.Float64()
	return math.Round(1900 + 104*math.Pow(u, 0.55))
}

func splitHood(hood string) (city, state string) {
	for i := len(hood) - 1; i >= 0; i-- {
		if hood[i] == ',' {
			return hood[:i], hood[i+2:]
		}
	}
	return hood, ""
}

// zipFor derives a stable pseudo-zipcode from the neighborhood name.
func zipFor(hood string, variant int) string {
	h := uint32(2166136261)
	for i := 0; i < len(hood); i++ {
		h ^= uint32(hood[i])
		h *= 16777619
	}
	return fmt.Sprintf("%05d", 10000+(h%80000)+uint32(variant))
}
