package datagen

import (
	"math/rand"
	"strconv"
)

// The three generators below are synthetic substitutes for the
// real-life corpora of Figure 6 (left). Each reproduces the structural
// profile that matters for the compressor comparison:
//
//   - Shakespeare: prose-heavy, long text values, shallow repetitive
//     structure (PLAY/ACT/SCENE/SPEECH/SPEAKER+LINE).
//   - Washington-Course: attribute-heavy records with short
//     enumerated/coded values.
//   - Baseball: deeply repetitive stat records dominated by small
//     numeric values.

// Shakespeare generates a play collection of roughly targetBytes.
func Shakespeare(targetBytes int, seed int64) []byte {
	rng := rand.New(rand.NewSource(seed))
	b := make([]byte, 0, targetBytes+4096)
	b = append(b, "<PLAYS>"...)
	play := 0
	for len(b) < targetBytes {
		play++
		b = append(b, "<PLAY><TITLE>"...)
		b = sentence(b, rng, 3+rng.Intn(3))
		b = append(b, "</TITLE><PERSONAE>"...)
		for i := 0; i < 6+rng.Intn(10); i++ {
			b = append(b, "<PERSONA>"...)
			b = append(b, personName(rng)...)
			b = append(b, "</PERSONA>"...)
		}
		b = append(b, "</PERSONAE>"...)
		for act := 1; act <= 3+rng.Intn(3); act++ {
			b = append(b, "<ACT><ACTTITLE>ACT "...)
			b = strconv.AppendInt(b, int64(act), 10)
			b = append(b, "</ACTTITLE>"...)
			for sc := 1; sc <= 2+rng.Intn(4); sc++ {
				b = append(b, "<SCENE><SCENETITLE>SCENE "...)
				b = strconv.AppendInt(b, int64(sc), 10)
				b = append(b, "</SCENETITLE>"...)
				for sp := 0; sp < 4+rng.Intn(10); sp++ {
					b = append(b, "<SPEECH><SPEAKER>"...)
					b = append(b, lastNames[rng.Intn(len(lastNames))]...)
					b = append(b, "</SPEAKER>"...)
					for l := 0; l < 2+rng.Intn(6); l++ {
						b = append(b, "<LINE>"...)
						b = sentence(b, rng, 8+rng.Intn(8))
						b = append(b, "</LINE>"...)
					}
					b = append(b, "</SPEECH>"...)
				}
				b = append(b, "</SCENE>"...)
			}
			b = append(b, "</ACT>"...)
		}
		b = append(b, "</PLAY>"...)
	}
	b = append(b, "</PLAYS>"...)
	return b
}

var courseDepts = []string{"CSE", "MATH", "PHYS", "CHEM", "BIOL", "HIST", "ECON", "PSYCH", "LING", "STAT"}
var courseDays = []string{"MWF", "TTh", "MW", "F", "Daily"}
var buildings = []string{"SAV", "MGH", "EEB", "KNE", "CSE2", "DEN", "GWN", "LOW"}

// WashingtonCourse generates a university course catalog of roughly
// targetBytes.
func WashingtonCourse(targetBytes int, seed int64) []byte {
	rng := rand.New(rand.NewSource(seed))
	b := make([]byte, 0, targetBytes+4096)
	b = append(b, "<root>"...)
	id := 0
	for len(b) < targetBytes {
		dept := courseDepts[rng.Intn(len(courseDepts))]
		b = append(b, `<course-listing code="`...)
		b = append(b, dept...)
		b = append(b, ' ')
		b = strconv.AppendInt(b, int64(100+rng.Intn(500)), 10)
		b = append(b, `" credits="`...)
		b = strconv.AppendInt(b, int64(1+rng.Intn(5)), 10)
		b = append(b, `"><title>`...)
		b = sentence(b, rng, 2+rng.Intn(4))
		b = append(b, "</title>"...)
		for s := 0; s < 1+rng.Intn(4); s++ {
			id++
			b = append(b, `<section id="`...)
			b = strconv.AppendInt(b, int64(id), 10)
			b = append(b, `" quarter="`...)
			b = append(b, []string{"autumn", "winter", "spring", "summer"}[rng.Intn(4)]...)
			b = append(b, `"><instructor>`...)
			b = append(b, personName(rng)...)
			b = append(b, "</instructor><days>"...)
			b = append(b, courseDays[rng.Intn(len(courseDays))]...)
			b = append(b, "</days><time>"...)
			b = appendInt(b, 8+rng.Intn(10), 2)
			b = append(b, "30</time><place><building>"...)
			b = append(b, buildings[rng.Intn(len(buildings))]...)
			b = append(b, "</building><room>"...)
			b = strconv.AppendInt(b, int64(100+rng.Intn(400)), 10)
			b = append(b, "</room></place><enrollment>"...)
			b = strconv.AppendInt(b, int64(10+rng.Intn(240)), 10)
			b = append(b, "</enrollment></section>"...)
		}
		b = append(b, "</course-listing>"...)
	}
	b = append(b, "</root>"...)
	return b
}

var teamCities = []string{"Atlanta", "Chicago", "Denver", "Houston", "Miami", "Boston", "Seattle", "Detroit"}
var teamNicks = []string{"Hawks", "Bears", "Rockets", "Sharks", "Wolves", "Eagles", "Lions", "Storm"}
var positions = []string{"First Base", "Second Base", "Shortstop", "Catcher", "Pitcher", "Left Field", "Center Field", "Right Field"}

// Baseball generates a season statistics document of roughly
// targetBytes (the smallest, most numeric corpus).
func Baseball(targetBytes int, seed int64) []byte {
	rng := rand.New(rand.NewSource(seed))
	b := make([]byte, 0, targetBytes+4096)
	b = append(b, "<SEASON><YEAR>1998</YEAR>"...)
	stat := func(tag string, max int) {
		b = append(b, '<')
		b = append(b, tag...)
		b = append(b, '>')
		b = strconv.AppendInt(b, int64(rng.Intn(max)), 10)
		b = append(b, '<', '/')
		b = append(b, tag...)
		b = append(b, '>')
	}
	for li := 0; len(b) < targetBytes; li++ {
		b = append(b, "<LEAGUE><LEAGUE_NAME>League "...)
		b = strconv.AppendInt(b, int64(li), 10)
		b = append(b, "</LEAGUE_NAME>"...)
		for d := 0; d < 3 && len(b) < targetBytes; d++ {
			b = append(b, "<DIVISION><DIVISION_NAME>Division "...)
			b = strconv.AppendInt(b, int64(d), 10)
			b = append(b, "</DIVISION_NAME>"...)
			for tm := 0; tm < 5 && len(b) < targetBytes; tm++ {
				b = append(b, "<TEAM><TEAM_CITY>"...)
				b = append(b, teamCities[rng.Intn(len(teamCities))]...)
				b = append(b, "</TEAM_CITY><TEAM_NAME>"...)
				b = append(b, teamNicks[rng.Intn(len(teamNicks))]...)
				b = append(b, "</TEAM_NAME>"...)
				for p := 0; p < 25; p++ {
					b = append(b, "<PLAYER><SURNAME>"...)
					b = append(b, lastNames[rng.Intn(len(lastNames))]...)
					b = append(b, "</SURNAME><GIVEN_NAME>"...)
					b = append(b, firstNames[rng.Intn(len(firstNames))]...)
					b = append(b, "</GIVEN_NAME><POSITION>"...)
					b = append(b, positions[rng.Intn(len(positions))]...)
					b = append(b, "</POSITION>"...)
					stat("GAMES", 162)
					stat("AT_BATS", 600)
					stat("RUNS", 120)
					stat("HITS", 200)
					stat("DOUBLES", 50)
					stat("TRIPLES", 12)
					stat("HOME_RUNS", 45)
					stat("RBI", 130)
					stat("STEALS", 40)
					stat("WALKS", 100)
					stat("STRIKE_OUTS", 150)
					b = append(b, "</PLAYER>"...)
				}
				b = append(b, "</TEAM>"...)
			}
			b = append(b, "</DIVISION>"...)
		}
		b = append(b, "</LEAGUE>"...)
	}
	b = append(b, "</SEASON>"...)
	return b
}

// Dataset identifies a generated corpus by name.
type Dataset struct {
	Name string
	Data []byte
}

// RealLifeCorpus returns the three Figure-6-left substitutes, at scale 1
// matching the rough magnitudes of the originals (Shakespeare ≈ 7.5 MB,
// Washington-Course ≈ 2.9 MB, Baseball ≈ 0.65 MB); scale multiplies each.
func RealLifeCorpus(seed int64, scale float64) []Dataset {
	return []Dataset{
		{Name: "Shakespeare", Data: Shakespeare(int(7_500_000*scale), seed)},
		{Name: "WashingtonCourse", Data: WashingtonCourse(int(2_900_000*scale), seed+1)},
		{Name: "Baseball", Data: Baseball(int(650_000*scale), seed+2)},
	}
}
