// Package dataset provides deterministic synthetic generators for the
// four data sets of the paper's evaluation (Table I): an American
// Community Survey extract on disability statistics, the 2019 Stack
// Overflow developer survey, flight statistics, and polls from the 2020
// democratic primaries.
//
// The real data sets (Kaggle flight delays, ACS extracts, ...) are not
// redistributable inside this repository, so each generator synthesizes a
// relation with the same dimension/target structure, comparable column
// cardinalities (scaled where needed to keep experiments laptop-sized)
// and planted domain effects — winter delay spikes, age-dependent
// impairment prevalence, seniority-dependent job satisfaction — so that
// summarization finds the same kinds of facts the paper reports. All
// generators are deterministic in (rows, seed).
//
// These relations are the inputs the generate → evaluate → solve →
// serve flow starts from; the serving daemon mounts any subset of them
// as named datasets (cmd/serve -datasets).
package dataset

import (
	"math"
	"math/rand"
	"sort"

	"cicero/internal/relation"
)

// DefaultRows holds the default row counts per data set, scaled down from
// the paper's multi-hundred-MB originals to keep a full experimental
// sweep in the minutes range while preserving relative sizes.
var DefaultRows = map[string]int{
	"acs":           3000,
	"stackoverflow": 9000,
	"flights":       12000,
	"primaries":     2500,
	"housing":       6000,
}

// boroughs and ageGroups mirror the ACS study of Figure 6 / Table II.
var (
	boroughs  = []string{"Brooklyn", "Manhattan", "Queens", "Staten Island", "Bronx"}
	ageGroups = []string{"Teenagers", "Adults", "Elders"}
	genders   = []string{"Female", "Male"}
)

// acsTargets lists the six disability-prevalence target columns
// (per-1000 rates), matching ACS NY's "#Targets 6" in Table I.
var acsTargets = []string{
	"hearing", "visual", "cognitive", "ambulatory", "selfcare", "independent_living",
}

// ACS generates the ACS NY disability extract: 3 dimensions and 6
// targets. Prevalence rates are planted to be strongly age-dependent
// with borough-level variation, reproducing the structure behind the
// paper's best speech ("About 80 out of 1000 elder persons identify as
// visually impaired. It is 17 for adults. It is 3 for teenagers...").
func ACS(rows int, seed int64) *relation.Relation {
	rng := rand.New(rand.NewSource(seed))
	b := relation.NewBuilder("acs", relation.Schema{
		Dimensions: []string{"borough", "age_group", "gender"},
		Targets:    acsTargets,
	})
	// Base prevalence per age group (per 1000), per target.
	base := map[string][3]float64{ // teen, adult, elder
		"hearing":            {2, 12, 60},
		"visual":             {3, 17, 80},
		"cognitive":          {25, 30, 45},
		"ambulatory":         {4, 35, 150},
		"selfcare":           {3, 10, 50},
		"independent_living": {5, 25, 110},
	}
	// Borough multipliers add geographic variation.
	boroughMult := map[string]float64{
		"Brooklyn": 1.1, "Manhattan": 0.85, "Queens": 1.0,
		"Staten Island": 0.95, "Bronx": 1.25,
	}
	targets := make([]float64, len(acsTargets))
	for i := 0; i < rows; i++ {
		bo := boroughs[rng.Intn(len(boroughs))]
		ag := rng.Intn(len(ageGroups))
		ge := genders[rng.Intn(len(genders))]
		for t, name := range acsTargets {
			mean := base[name][ag] * boroughMult[bo]
			if ge == "Female" && name == "ambulatory" {
				mean *= 1.12 // mild planted gender effect
			}
			v := mean + rng.NormFloat64()*mean*0.15
			if v < 0 {
				v = 0
			}
			targets[t] = v
		}
		b.MustAddRow([]string{bo, ageGroups[ag], ge}, targets)
	}
	return b.Freeze()
}

// soCountries etc. define Stack Overflow dimension domains; the original
// has 7 dimensions and 6 targets over a 197 MB CSV.
var (
	soCountries = []string{
		"United States", "India", "Germany", "United Kingdom", "Canada",
		"France", "Brazil", "Poland", "Australia", "Netherlands",
		"Spain", "Italy", "Russia", "Sweden", "Ukraine", "Switzerland",
		"Israel", "Mexico", "China", "Japan",
	}
	soDevTypes = []string{
		"Back-end", "Front-end", "Full-stack", "Mobile", "DevOps",
		"Data science", "Embedded", "QA", "Engineering manager", "Student",
	}
	soEducation = []string{
		"Less than bachelor", "Bachelor", "Master", "Doctoral", "Bootcamp", "Self-taught",
	}
	soEmployment = []string{"Full-time", "Part-time", "Freelance", "Unemployed", "Retired"}
	soAgeRanges  = []string{"<20", "20-24", "25-29", "30-34", "35-44", "45-54", "55+"}
	soOrgSizes   = []string{"1", "2-9", "10-19", "20-99", "100-499", "500-999", "1000-4999", "5000+"}
)

// soTargets lists the Stack Overflow target columns; the Figure 3
// scenarios use competence (S-C), optimism (S-O) and job satisfaction
// (S-S), all on 0-10 style scales.
var soTargets = []string{
	"competence", "optimism", "job_satisfaction", "career_satisfaction", "salary_k", "weekly_hours",
}

// StackOverflow generates the developer-survey relation: 7 dimensions
// and 6 targets. Effects are planted so that seniority raises perceived
// competence, students are most optimistic, and mid-size organizations
// have a satisfaction dip, giving the optimizer meaningful facts to find.
func StackOverflow(rows int, seed int64) *relation.Relation {
	rng := rand.New(rand.NewSource(seed))
	b := relation.NewBuilder("stackoverflow", relation.Schema{
		Dimensions: []string{"country", "dev_type", "education", "employment", "gender", "age_range", "org_size"},
		Targets:    soTargets,
	})
	targets := make([]float64, len(soTargets))
	clamp := func(v, lo, hi float64) float64 { return math.Max(lo, math.Min(hi, v)) }
	for i := 0; i < rows; i++ {
		co := rng.Intn(len(soCountries))
		dt := rng.Intn(len(soDevTypes))
		ed := rng.Intn(len(soEducation))
		em := rng.Intn(len(soEmployment))
		ge := genders[rng.Intn(len(genders))]
		ag := rng.Intn(len(soAgeRanges))
		os := rng.Intn(len(soOrgSizes))

		seniority := float64(ag) / float64(len(soAgeRanges)-1)
		competence := clamp(5.2+3*seniority+rng.NormFloat64()*1.2, 0, 10)
		optimism := clamp(7.5-2.5*seniority+rng.NormFloat64()*1.5, 0, 10)
		if soDevTypes[dt] == "Student" {
			optimism = clamp(optimism+1.2, 0, 10)
		}
		jobSat := clamp(6+1.5*seniority+rng.NormFloat64()*1.8, 0, 10)
		if os >= 3 && os <= 5 {
			jobSat = clamp(jobSat-1.0, 0, 10) // mid-size dip
		}
		careerSat := clamp(jobSat+rng.NormFloat64()*0.8, 0, 10)
		salary := 30 + 90*seniority + float64(9-dt)*4 + rng.NormFloat64()*15
		if co < 5 {
			salary *= 1.4 // high-income countries
		}
		hours := clamp(40+rng.NormFloat64()*6-3*float64(em), 5, 80)

		targets[0], targets[1], targets[2] = competence, optimism, jobSat
		targets[3], targets[4], targets[5] = careerSat, math.Max(5, salary), hours
		b.MustAddRow([]string{
			soCountries[co], soDevTypes[dt], soEducation[ed],
			soEmployment[em], ge, soAgeRanges[ag], soOrgSizes[os],
		}, targets)
	}
	return b.Freeze()
}

// flight dimension domains; the Kaggle original has 6 dimensions.
var (
	flAirlines = []string{"AA", "DL", "UA", "WN", "B6", "AS", "NK", "F9"}
	flRegions  = []string{
		"Northeast", "Southeast", "Midwest", "South", "West",
		"Northwest", "Mountain", "Pacific", "Alaska",
	}
	flSeasons = []string{"Winter", "Spring", "Summer", "Fall"}
	flMonths  = []string{
		"January", "February", "March", "April", "May", "June",
		"July", "August", "September", "October", "November", "December",
	}
	flDaysOfWeek = []string{"Mon", "Tue", "Wed", "Thu", "Fri", "Sat", "Sun"}
	flTimesOfDay = []string{"Morning", "Afternoon", "Evening", "Night"}
)

// monthSeason maps month index to season index (meteorological).
func monthSeason(m int) int {
	switch {
	case m == 11 || m <= 1: // Dec, Jan, Feb
		return 0
	case m <= 4:
		return 1
	case m <= 7:
		return 2
	default:
		return 3
	}
}

// Flights generates the flight-statistics relation with 6 dimensions and
// two targets: delay minutes and cancellation probability (0/1 outcomes
// whose subset averages are probabilities). The paper's public deployment
// exposed cancellation probability; Figure 3 additionally evaluates delay
// (F-D), so we carry both targets in one relation. Planted effects match
// the speeches the paper cites: a significant cancellation increase in
// February, reduced probability in the West, and winter delay spikes.
func Flights(rows int, seed int64) *relation.Relation {
	rng := rand.New(rand.NewSource(seed))
	b := relation.NewBuilder("flights", relation.Schema{
		Dimensions: []string{"airline", "origin_region", "season", "month", "day_of_week", "time_of_day"},
		Targets:    []string{"cancelled", "delay"},
	})
	for i := 0; i < rows; i++ {
		al := rng.Intn(len(flAirlines))
		re := rng.Intn(len(flRegions))
		mo := rng.Intn(len(flMonths))
		se := monthSeason(mo)
		dw := rng.Intn(len(flDaysOfWeek))
		td := rng.Intn(len(flTimesOfDay))

		cancelProb := 0.06
		if flMonths[mo] == "February" {
			cancelProb = 0.18
		} else if se == 0 {
			cancelProb = 0.11
		}
		if flRegions[re] == "West" || flRegions[re] == "Pacific" {
			cancelProb *= 0.45
		}
		if flAirlines[al] == "NK" {
			cancelProb *= 1.5
		}
		cancelled := 0.0
		if rng.Float64() < cancelProb {
			cancelled = 1
		}

		delay := 8 + rng.ExpFloat64()*6
		if se == 0 {
			delay += 12
		}
		if flTimesOfDay[td] == "Evening" {
			delay += 6 // rolling delays accumulate during the day
		}
		if flRegions[re] == "Northeast" && se == 0 {
			delay += 8
		}
		if cancelled == 1 {
			delay = 0
		}

		b.MustAddRow([]string{
			flAirlines[al], flRegions[re], flSeasons[se],
			flMonths[mo], flDaysOfWeek[dw], flTimesOfDay[td],
		}, []float64{cancelled, delay})
	}
	return b.Freeze()
}

// primaries dimension domains: 5 dimensions, 1 target (Table I).
var (
	prCandidates = []string{
		"Biden", "Sanders", "Warren", "Buttigieg", "Harris",
		"Klobuchar", "Bloomberg", "Yang",
	}
	prStates = []string{
		"Iowa", "New Hampshire", "Nevada", "South Carolina",
		"California", "Texas", "Virginia", "Massachusetts",
		"Minnesota", "Colorado", "Michigan", "Florida",
	}
	prMonths    = []string{"October", "November", "December", "January", "February", "March"}
	prPollTypes = []string{"Live phone", "Online", "IVR", "Mixed"}
	prPopations = []string{"Likely voters", "Registered voters", "Adults"}
)

// Primaries generates the democratic-primaries polling relation: one
// poll-result row per (candidate, state, month, methodology, population)
// draw with the target being the poll percentage. Candidate strengths
// shift over months to simulate the race dynamics.
func Primaries(rows int, seed int64) *relation.Relation {
	rng := rand.New(rand.NewSource(seed))
	b := relation.NewBuilder("primaries", relation.Schema{
		Dimensions: []string{"candidate", "state", "month", "poll_type", "population"},
		Targets:    []string{"pct"},
	})
	baseSupport := []float64{27, 22, 14, 9, 7, 4, 8, 3}
	trend := []float64{1.5, 0.5, -1.2, 0.4, -1.0, 0.2, 1.0, -0.3} // per month
	for i := 0; i < rows; i++ {
		ca := rng.Intn(len(prCandidates))
		st := rng.Intn(len(prStates))
		mo := rng.Intn(len(prMonths))
		pt := rng.Intn(len(prPollTypes))
		po := rng.Intn(len(prPopations))

		pct := baseSupport[ca] + trend[ca]*float64(mo) + rng.NormFloat64()*3.5
		if prCandidates[ca] == "Sanders" && prStates[st] == "New Hampshire" {
			pct += 6
		}
		if prCandidates[ca] == "Biden" && prStates[st] == "South Carolina" {
			pct += 10
		}
		if pct < 0 {
			pct = 0
		}
		b.MustAddRow([]string{
			prCandidates[ca], prStates[st], prMonths[mo],
			prPollTypes[pt], prPopations[po],
		}, []float64{pct})
	}
	return b.Freeze()
}

// housing dimension domains. The generator mirrors the shape of public
// observed-rent-index extracts (Zillow ZORI style): one rent observation
// per (city, bedrooms, month) draw over an 18-month window. Like the
// other generators it is synthesized rather than redistributed, with
// planted effects: coastal metros rent highest, rents rise month over
// month with a summer bump, and city populations are stable — which is
// what makes the dataset useful for trend / time-window questions and
// "population over 500 thousand" entity constraints.
var (
	hoCities = []string{
		"New York", "Los Angeles", "Chicago", "Houston", "Phoenix",
		"San Antonio", "Dallas", "Austin", "San Francisco", "Seattle",
		"Denver", "Boston", "Portland", "Atlanta", "Miami",
		"Madison", "Boise", "Asheville",
	}
	hoStates = []string{
		"New York", "California", "Illinois", "Texas", "Arizona",
		"Texas", "Texas", "Texas", "California", "Washington",
		"Colorado", "Massachusetts", "Oregon", "Georgia", "Florida",
		"Wisconsin", "Idaho", "North Carolina",
	}
	hoPops = []float64{
		8_400_000, 3_900_000, 2_700_000, 2_300_000, 1_600_000,
		1_500_000, 1_300_000, 960_000, 870_000, 740_000,
		715_000, 675_000, 650_000, 490_000, 440_000,
		270_000, 235_000, 95_000,
	}
	hoBaseRent = []float64{
		3400, 2700, 1700, 1400, 1500,
		1250, 1600, 1800, 3300, 2300,
		1900, 2900, 1750, 1550, 2200,
		1300, 1200, 1150,
	}
	hoBedrooms = []string{"Studio", "One bedroom", "Two bedroom", "Three bedroom"}
	hoBedMult  = []float64{0.65, 0.8, 1.0, 1.3}
	hoMonths   = []string{
		"January 2023", "February 2023", "March 2023", "April 2023",
		"May 2023", "June 2023", "July 2023", "August 2023",
		"September 2023", "October 2023", "November 2023", "December 2023",
		"January 2024", "February 2024", "March 2024", "April 2024",
		"May 2024", "June 2024",
	}
)

// Housing generates the rent-index relation: 4 dimensions (city, state,
// bedrooms, month) and two targets (monthly rent in dollars, city
// population). It is the time-series tenant: the month dimension spans
// 18 consecutive "Month Year" periods and rents carry a planted upward
// trend (~0.8% per month plus a summer premium), so trend questions
// have real signal. Population is constant per city up to 1% noise, so
// entity constraints like "over 500 thousand" select a stable city set.
func Housing(rows int, seed int64) *relation.Relation {
	rng := rand.New(rand.NewSource(seed))
	b := relation.NewBuilder("housing", relation.Schema{
		Dimensions: []string{"city", "state", "bedrooms", "month"},
		Targets:    []string{"rent", "population"},
	})
	for i := 0; i < rows; i++ {
		ci := rng.Intn(len(hoCities))
		be := rng.Intn(len(hoBedrooms))
		mo := rng.Intn(len(hoMonths))

		rent := hoBaseRent[ci] * hoBedMult[be] * (1 + 0.008*float64(mo))
		if m := hoMonths[mo]; len(m) > 4 && (m[:4] == "June" || m[:4] == "July" || m[:6] == "August") {
			rent *= 1.03
		}
		rent *= 1 + rng.NormFloat64()*0.06
		if rent < 300 {
			rent = 300
		}
		pop := hoPops[ci] * (1 + rng.NormFloat64()*0.01)

		b.MustAddRow([]string{
			hoCities[ci], hoStates[ci], hoBedrooms[be], hoMonths[mo],
		}, []float64{rent, pop})
	}
	return b.Freeze()
}

// ByName generates a data set by its canonical name using DefaultRows and
// the given seed. It returns nil for unknown names.
func ByName(name string, seed int64) *relation.Relation {
	return ByNameRows(name, DefaultRows[name], seed)
}

// ByNameRows generates a data set by its canonical name with the given
// row count; it is the one name → generator table, so every command
// accepts the same names. It returns nil for unknown names.
func ByNameRows(name string, rows int, seed int64) *relation.Relation {
	switch name {
	case "acs":
		return ACS(rows, seed)
	case "stackoverflow":
		return StackOverflow(rows, seed)
	case "flights":
		return Flights(rows, seed)
	case "primaries":
		return Primaries(rows, seed)
	case "housing":
		return Housing(rows, seed)
	default:
		return nil
	}
}

// Names lists the built-in data set names (DefaultRows' keys), sorted.
func Names() []string {
	names := make([]string, 0, len(DefaultRows))
	for name := range DefaultRows {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}
